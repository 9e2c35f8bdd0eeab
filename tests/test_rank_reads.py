"""Head and socle constituents read off ranks, indecomposability read off
the trace form on the module, and the projective cover solved against the
head projection, against the constructions they replaced: the head and
socle built as modules, the End(M)^op algebra with its trace-form
radical, and the cover read through the head module.  Over Q and
F_1000003 on every built-in example, and over F_11 on B, where the
idempotent search decides for the larger direct sums.
"""

import contextlib
import io

import pytest

from oracles import (
    reference_head_constituents,
    reference_is_indecomposable,
    reference_projective_cover,
    reference_socle_constituents,
)

from qstrat import cli
from qstrat import rep as R
from qstrat import strat as S
from qstrat import tilting as TL
from qstrat.algebra import Algebra, CharTooSmall
from qstrat.examples import get_example
from qstrat.exactla import field_from_name

FIELDS = ["Q", "Fp:1000003"]
BUILT_IN = ["A", "B", "kxk", "point", "semiinf:3", "qsl2:3", "gl11:-1:2", "dzig:-1:2"]
KINDS = ("standard", "costandard", "proper_standard", "proper_costandard")


def _modules(name, field):
    """Every standard, costandard, proper (co)standard, projective,
    injective and tilting module of an example, by label."""
    alg, spec = get_example(name, field_from_name(field))
    fam = S.standard_family(alg, spec)
    labels = sorted(alg.vertices)
    out = [getattr(fam, kind)(b) for kind in KINDS for b in labels]
    out += [R.projective(alg, b) for b in labels] + [R.injective(alg, b) for b in labels]
    return out + TL.tilting_set(alg, spec).parts()[1]


def _sums(modules):
    """Direct sums of two modules: each with itself and with the next."""
    pairs = list(zip(modules, modules)) + list(zip(modules, modules[1:] + modules[:1]))
    return [R.direct_sum(list(pair)) for pair in pairs]


def _verdict(check, rep):
    try:
        return check(rep)
    except CharTooSmall:
        return "CharTooSmall"


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("name", BUILT_IN)
def test_constituents_match_the_built_head_and_socle(name, field):
    for M in _modules(name, field):
        assert R.head_constituents(M) == reference_head_constituents(M)
        assert R.socle_constituents(M) == reference_socle_constituents(M)


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("name", BUILT_IN)
def test_is_local_matches_the_end_algebra_verdict(name, field):
    modules = _modules(name, field)
    sums = _sums(modules)
    for M in modules + sums:
        assert R.is_indecomposable(M) == reference_is_indecomposable(M), M
    assert all(R.is_indecomposable(M) for M in modules)
    assert not any(R.is_indecomposable(M) for M in sums)


def test_is_local_small_prime_takes_the_idempotent_search(monkeypatch):
    """Over F_11 on B the fourfold sums, whose End has dimension 16 or
    more, go to the idempotent search.  Every verdict is the End-algebra
    reference's where the reference answers, and F_1000003's where it
    raises CharTooSmall."""

    def cases(field):
        modules = _modules("B", field)
        return modules + _sums(modules) + [R.direct_sum([M] * 4) for M in modules]

    small, large = cases("Fp:11"), cases("Fp:1000003")
    searched = []
    real = R._find_idempotent_map
    with monkeypatch.context() as m:
        m.setattr(R, "_find_idempotent_map", lambda rep: searched.append(rep) or real(rep))
        got = [R.is_indecomposable(M) for M in small]
    want = [_verdict(reference_is_indecomposable, M) for M in small]
    assert got == [R.is_indecomposable(L) if w == "CharTooSmall" else w for w, L in zip(want, large)]
    assert searched and "CharTooSmall" in want and True in got and False in got


def test_is_local_of_the_zero_module():
    alg, _ = get_example("B")
    assert R.is_indecomposable(R.zero_rep(alg)) is False


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("name", BUILT_IN)
def test_projective_cover_matches_the_head_module_construction(name, field):
    for M in _modules(name, field):
        P, cover, labels = R.projective_cover(M)
        P_ref, cover_ref, labels_ref = reference_projective_cover(M)
        assert (P.dims, P.act, labels) == (P_ref.dims, P_ref.act, labels_ref)
        assert cover.mats == cover_ref.mats


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("name", BUILT_IN)
def test_opposite_shares_the_radical(name, field):
    """An algebra's radical read by its opposite, in either order, is the
    one the opposite's own trace form gives."""
    f = field_from_name(field)
    for first in (True, False):
        alg, _ = get_example(name, f)
        opp = alg.opposite()
        if first:
            alg.radical_basis()
        fresh = Algebra(f, opp.vertices, opp.basis, opp.idempotent_index, opp.mult, opp.generators)
        shared = opp.radical_basis()
        assert [r.algebra for r in shared] == [opp] * len(shared)
        assert [r.coeffs for r in shared] == [r.coeffs for r in fresh.radical_basis()]
        assert [r.coeffs for r in alg.radical_basis()] == [r.coeffs for r in shared]


def test_tower_job_builds_no_endomorphism_algebra(monkeypatch):
    """Every tilting module of the tower is certified indecomposable by the
    trace form on the module: no End(T)^op is built."""
    built = []
    real = R.endomorphism_algebra
    monkeypatch.setattr(R, "endomorphism_algebra", lambda *a, **k: built.append(a) or real(*a, **k))
    for field in FIELDS:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["--field", field, "tower", "semiinf", "--window", "2,3,4,5", "--labels", "0,1"])
        assert code == 0
    assert built == []
