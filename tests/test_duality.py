"""The costandard side read by duality from the standard side over the
opposite of the algebra in hand, against the constructions it replaced.

`StandardFamily` builds its proper costandard as the dual of a proper
standard over the opposite of its one lower quotient, and
`coinduce_from_corner` dualizes induction over `ambient.opposite()` and
`corner.opposite()`.  The references kept in `oracles` took a second lower
quotient of `algebra.opposite()`, a corner of `ambient.opposite()`, and
moved modules between the two copies by basis name.  The block-diagonal
`direct_sum` and the shared Ringel hom functor are compared with their
earlier versions too, over Q and F_1000003.
"""

import contextlib
import io
import sys

import pytest

from oracles import (
    check_map,
    costandardize,
    reference_coinduce_from_corner,
    reference_costandardize,
    reference_direct_sum,
    reference_family_module,
    reference_ringel_coimage,
    reference_ringel_image,
    reference_standardize,
    standardize,
    zero_map,
)

from qstrat import cli
from qstrat import rep as R
from qstrat import strat as S
from qstrat import tilting as TL
from qstrat.algebra import Algebra
from qstrat.examples import get_example
from qstrat.exactla import field_from_name

FIELDS = ["Q", "Fp:1000003"]
EXAMPLES = ["A", "B", "semiinf:3", "qsl2:3", "gl11:-1:2", "dzig:-1:2"]
BUILT_IN = ["A", "B", "kxk", "point", "semiinf:3", "qsl2:3", "gl11:-1:2", "dzig:-1:2"]
KINDS = ("standard", "costandard", "proper_standard", "proper_costandard")
SIGNINGS = ["plus", "alternating", "minus"]


def _signs(spec, signing):
    return {
        e: {"plus": "+", "minus": "-", "alternating": "+-"[i % 2]}[signing]
        for i, e in enumerate(spec.poset.elements)
    }


def _typed(m):
    return [[(type(x), x) for x in row] for row in m.rows]


def _same(got, want):
    """Equal modules over the identical algebra: dims, action keys and
    matrices, entry types included."""
    assert got.algebra is want.algebra
    assert got.dims == want.dims
    assert sorted(got.act) == sorted(want.act)
    for k, m in got.act.items():
        assert m.shape == want.act[k].shape and _typed(m) == _typed(want.act[k])


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("name", EXAMPLES)
def test_family_kinds_match_the_opposite_quotient_construction(name, field):
    alg, spec = get_example(name, field_from_name(field))
    fam = S.standard_family(alg, spec)
    for b in sorted(alg.vertices):
        for kind in KINDS:
            _same(getattr(fam, kind)(b), reference_family_module(alg, spec, b, kind))


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("name", EXAMPLES)
def test_standardize_and_costandardize_match_the_rebased_construction(name, field):
    alg, spec = get_example(name, field_from_name(field))
    for lam in spec.poset.elements:
        stratum = S.stratum_algebra(alg, spec, lam)
        for b in stratum.vertices:
            for m in (R.projective(stratum, b), R.injective(stratum, b), R.simple_rep(stratum, b)):
                _same(standardize(alg, spec, lam, m), reference_standardize(alg, spec, lam, m))
                _same(costandardize(alg, spec, lam, m), reference_costandardize(alg, spec, lam, m))


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("signing", SIGNINGS)
@pytest.mark.parametrize("name", EXAMPLES)
def test_tilting_loop_coinductions_match_the_rebased_construction(name, signing, field, monkeypatch):
    alg, spec = get_example(name, field_from_name(field))
    calls = []
    real = S.coinduce_from_corner

    def recorded(ambient, corner, module):
        got = real(ambient, corner, module)
        calls.append((ambient, corner, module, got))
        return got

    monkeypatch.setattr(S, "coinduce_from_corner", recorded)
    view = spec.with_signs(_signs(spec, signing))
    for b in sorted(alg.vertices):  # unchecked: at all-minus signs A's flags fail
        TL._tilting(alg, view, b)
    if signing == "minus" and len(spec.poset.elements) > 1:
        assert calls
    for ambient, corner, module, got in calls:
        _same(got, reference_coinduce_from_corner(ambient, corner, module))


def _alternating_eps(spec):
    return ",".join(f"{e}={s}" for e, s in _signs(spec, "alternating").items())


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("name", EXAMPLES)
def test_no_second_truncation_of_an_opposite(name, field, monkeypatch):
    """ringel, cellular and verify truncate no algebra made by opposite():
    a proper costandard reads its stratum corner as the opposite of the
    quotient's corner."""
    made, keep, bad = set(), [], []
    opposite, lower, upper = Algebra.opposite, Algebra.truncate_lower, Algebra.truncate_upper

    def recorded_opposite(self):
        fresh = self._opposite is None
        got = opposite(self)
        if fresh:
            made.add(id(got))
            keep.append(got)  # keeps the ids distinct
        return got

    def guarded_lower(self, kill):
        if id(self) in made:
            bad.append(("truncate_lower", sys._getframe(1).f_code.co_name))
        return lower(self, kill)

    def guarded_upper(self, keep_):
        if id(self) in made:
            bad.append(("truncate_upper", sys._getframe(1).f_code.co_name))
        return upper(self, keep_)

    monkeypatch.setattr(Algebra, "opposite", recorded_opposite)
    monkeypatch.setattr(Algebra, "truncate_lower", guarded_lower)
    monkeypatch.setattr(Algebra, "truncate_upper", guarded_upper)
    _, spec = get_example(name)
    ex = f"examples:{name}"
    for argv in (["ringel", ex], ["cellular", ex], ["verify", ex, f"--eps={_alternating_eps(spec)}"]):
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["--field", field, *argv]) in (0, 1)
    assert made and bad == []


def _sum_cases(alg, spec):
    """Lists of modules to sum: each family, the projectives, the
    injectives and the tilting modules, a mixed list with repeats, and a
    list holding a zero module."""
    fam = S.standard_family(alg, spec)
    labels = sorted(alg.vertices)
    tilts = [TL.tilting_set(alg, spec).module(b) for b in labels]
    lists = [[getattr(fam, kind)(b) for b in labels] for kind in KINDS]
    lists += [[R.projective(alg, b) for b in labels], [R.injective(alg, b) for b in labels], tilts]
    mixed = [fam.standard(labels[0]), R.injective(alg, labels[-1]), tilts[0], fam.standard(labels[0])]
    return lists + [mixed, [R.zero_rep(alg), fam.proper_costandard(labels[-1])]]


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("name", BUILT_IN)
def test_direct_sum_matches_the_stacked_construction(name, field):
    """The sum equals the stacked one.  direct_sum builds no inclusions or
    projections now; the reference's are module maps into and out of the
    sum built here, each projection a left inverse of its inclusion and
    zero on the others, so the sum splits into the parts."""
    alg, spec = get_example(name, field_from_name(field))
    for parts in _sum_cases(alg, spec):
        total = R.direct_sum(parts)
        want, want_incls, want_projs = reference_direct_sum(parts)
        _same(total, want)
        for i, q, p in zip(want_incls, want_projs, parts, strict=True):
            assert (i.source, i.target, q.source, q.target) == (p, want, want, p)
            assert check_map(R.RepMap(p, total, i.mats)) and check_map(R.RepMap(total, p, q.mats))
            for j, p2 in zip(want_incls, parts):
                want_map = R.identity_map(p) if j is i else zero_map(p2, p)
                assert q.compose(j) == want_map


@pytest.mark.parametrize("field", FIELDS)
def test_ringel_hom_functors_match_the_separate_loops(field, monkeypatch):
    """Every ringel_image and ringel_coimage call verify_ringel makes on
    the built-in examples."""
    calls = []
    for fn, ref in ((TL.ringel_image, reference_ringel_image), (TL.ringel_coimage, reference_ringel_coimage)):

        def recorded(rd, v, fn=fn, ref=ref):
            got = fn(rd, v)
            calls.append((rd, v, got, ref))
            return got

        monkeypatch.setattr(TL, fn.__name__, recorded)
    for name in BUILT_IN:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["--field", field, "ringel", f"examples:{name}"]) in (0, 1)
    assert {ref for *_, ref in calls} == {reference_ringel_image, reference_ringel_coimage}
    summands = 0
    for rd, v, got, ref in calls:
        j = next((j for j, p in enumerate(rd.parts) if p is v), None)
        if j is None:
            _same(got, ref(rd, v))
            continue
        # read in the dual's own Hom bases, F(T(b)) is the dual's
        # projective at b and G(T(b)) its injective, matrix for matrix
        summands += 1
        want = R.projective if ref is reference_ringel_image else R.injective
        _same(got, want(rd.dual_algebra, rd.names[j]))
    assert summands == 2 * sum(len(get_example(name)[0].vertices) for name in BUILT_IN)
