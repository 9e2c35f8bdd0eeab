"""Larger windows of the built-in families, exercising the full pipeline
at the intended working scale."""

import time

from oracles import costandardize, job_tilting_rigidity, krull_schmidt_isomorphism, standardize

from qstrat import based as BD
from qstrat import rep as R
from qstrat import strat as S
from qstrat import tilting as TL
from qstrat.examples import get_example


def test_semiinf_tower_to_six():
    t0 = time.monotonic()
    rep = TL.truncation_tower(lambda w: get_example(f"semiinf:{w}"), [4, 5, 6], tilt_labels=("0", "1"))
    assert rep.ok
    data = rep.data["windows"]["6"]
    assert data["algebra_dim"] == 25
    assert data["tilting_multiplicities"]["0"] == {str(i): 1 for i in range(7)}
    assert time.monotonic() - t0 < 60


def test_qsl2_six_stratified_and_dual():
    t0 = time.monotonic()
    Q, spec = get_example("qsl2:6")
    assert Q.dim == 25
    assert S.check_stratified(Q, spec, with_ext=False).ok
    rd = TL.ringel_dual(Q, spec)
    assert rd.dual_algebra.dim == 25
    assert S.check_stratified(rd.dual_algebra, rd.dual_spec, with_ext=False).ok
    assert time.monotonic() - t0 < 120


def test_gl11_symmetric_cellular_extraction():
    G, spec = get_example("gl11:-1:2")
    rigid, _ = job_tilting_rigidity(G, spec)
    assert rigid
    st, rd = BD.extract_cellular(G, spec, flavor="FQH")
    assert BD.verify_based(rd.dual_algebra, st).ok


def test_standardization_is_additive():
    B, spec = get_example("B")
    stratum = S.stratum_algebra(B, spec, "1")
    L = R.simple_rep(stratum, "1")
    LL = R.direct_sum([L, L])
    ind = standardize(B, spec, "1", LL)
    fam = S.standard_family(B, spec)
    pair = R.direct_sum([fam.proper_standard("1"), fam.proper_standard("1")])
    assert krull_schmidt_isomorphism(ind, pair) is not None
    co = costandardize(B, spec, "1", LL)
    copair = R.direct_sum([fam.proper_costandard("1"), fam.proper_costandard("1")])
    assert krull_schmidt_isomorphism(co, copair) is not None
