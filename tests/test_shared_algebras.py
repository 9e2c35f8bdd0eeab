"""One algebra object per content, and a tilting memo per corner.

Corners and lower quotients go through `algebra._shared`, so a derived
algebra equal to a live one (the window below, in a tower) is that
algebra, with its memos.  `tilting._tilt` memoizes the module after each
climb step on its corner, under the signed `strat.strat_key`.  The
modules are pinned against `oracles.reference_tilt`, the climb without
the memo, over Q and F_1000003.
"""

import weakref

import pytest

from oracles import reference_tilt
from test_tilting import _signs

from qstrat import algebra as A
from qstrat import strat as S
from qstrat import tilting as TL
from qstrat.examples import get_example
from qstrat.exactla import field_from_name

FIELDS = ["Q", "Fp:1000003"]
TOWERS = [
    ("semiinf:{w}", [2, 3, 4, 5]),
    ("qsl2:{w}", [2, 3, 4, 5]),
    ("gl11:-{w}:{w}", [1, 2, 3]),
    ("dzig:-{w}:{w}", [1, 2, 3]),
]
EXAMPLES = ["A", "B", "kxk", "point", "semiinf:3", "qsl2:3", "gl11:-1:2", "dzig:-1:2"]


def _assert_tilts_match(alg, spec, b):
    quot, _ = S.lower_quotient(alg, spec, spec.stratum_of[b])
    T = TL._tilt(quot, spec, b)
    want = reference_tilt(quot, spec, b)
    assert T.algebra is want.algebra
    assert T.dims == want.dims
    assert T.act == want.act


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("family, windows", TOWERS)
def test_tower_tilts_match_the_whole_climb(family, windows, field):
    """Every window and label of a tower, windows in increasing order and
    all held, so each climb may start from a window below."""
    held = []
    for w in windows:
        alg, spec = get_example(family.format(w=w), field_from_name(field))
        held.append(alg)
        for b in sorted(alg.vertices):
            _assert_tilts_match(alg, spec, b)


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("name", EXAMPLES)
def test_signed_tilts_match_the_whole_climb(name, field):
    """All-plus, alternating and all-minus signs in turn over one algebra:
    a memo entry of one sign vector is never read for another."""
    alg, spec = get_example(name, field_from_name(field))
    for pattern in ("plus", "alternating", "minus"):
        signed = spec.with_signs(_signs(spec, pattern))
        for b in sorted(alg.vertices):
            _assert_tilts_match(alg, signed, b)


def test_window_below_is_the_corner():
    w3, _ = get_example("semiinf:3")
    w4, _ = get_example("semiinf:4")
    corner = w4.truncate_upper(w3.vertices)
    assert corner is A._shared(w3)
    assert corner.mult == w3.mult and corner.basis == w3.basis


@pytest.mark.parametrize("w", [9, 10, 12])
def test_window_below_is_the_corner_past_one_digit(w):
    """A built algebra lists its idempotents in vertex order, as a corner
    does, so the corner stays the window below once the labels reach two
    digits, where string order and vertex order part."""
    held, _ = get_example(f"semiinf:{w}")
    big, _ = get_example(f"semiinf:{w + 1}")
    assert big.truncate_upper(held.vertices) is A._shared(held)
    assert list(held.idempotent_index) == list(held.vertices)


def test_lower_map_points_at_the_shared_quotient():
    q3, _ = get_example("qsl2:3")
    q4, _ = get_example("qsl2:4")
    quot, tmap = q4.truncate_lower({"4"})
    assert quot is A._shared(q3)
    assert tmap.source is q4 and tmap.quotient is quot


def test_nothing_or_everything_gives_the_algebra_itself():
    first, _ = get_example("semiinf:3")
    second, _ = get_example("semiinf:3")
    assert second is not first
    for alg in (first, second):
        quot, tmap = alg.truncate_lower(set())
        assert quot is alg and tmap.source is alg and tmap.quotient is alg
        assert alg.truncate_upper(alg.vertices) is alg
    assert second.truncate_upper({"0", "1"}) is first.truncate_upper({"0", "1"})


def _copy(alg, mult=None):
    return A.Algebra(alg.field, alg.vertices, alg.basis, alg.idempotent_index, mult or alg.mult)


def test_one_constant_apart_is_never_merged(monkeypatch):
    """With every hash forced equal, the table's one slot holds the first
    corner; a corner one structure constant apart, or with its
    idempotents listed in another order (which to_json would show),
    stays its own object, and an equal one is still merged."""
    alg, _ = get_example("semiinf:3")
    keep = {"0", "1", "2"}
    monkeypatch.setattr(A, "_SHARED", weakref.WeakValueDictionary())
    monkeypatch.setattr(A, "_content_hash", lambda alg: 0)
    corner = alg.truncate_upper(keep)
    assert A._SHARED[0] is corner
    idem = set(alg.idempotent_index.values())
    k, l = next(
        (k, l) for (k, l) in sorted(alg.mult)
        if k not in idem and l not in idem and all(alg.src(i) in keep and alg.tgt(i) in keep for i in (k, l))
    )
    f = alg.field
    mult = dict(alg.mult)
    mult[(k, l)] = tuple((m, f.add(c, f.one)) for m, c in alg.mult[(k, l)])
    apart = _copy(alg, mult).truncate_upper(keep)
    assert apart is not corner and apart.mult != corner.mult
    assert A._shared(apart) is apart
    flipped = dict(reversed(list(corner.idempotent_index.items())))
    assert A._shared(A.Algebra(corner.field, corner.vertices, corner.basis, flipped, corner.mult)) is not corner
    assert _copy(alg).truncate_upper(keep) is corner
    assert A._SHARED[0] is corner
