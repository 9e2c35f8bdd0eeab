"""Ext, extension classes and lower truncations read off instead of solved
for, against the constructions they replaced.

`ext_dims` and `ext1_with_cocycles` take Hom out of a resolution term from
`rep.yoneda_hom` (Hom(A e_v, N) = e_v N), `extension_middle` reads its
split verdict from the coboundaries its context carries, and
`Algebra._ideal_span` is built block by block.  The references kept in
`oracles` are the intertwiner-equation Ext, the retraction search and the
dense ideal span.  Every call the CLI makes on the built-in examples is
recorded and replayed against them, over Q and F_1000003.
"""

import contextlib
import io
import os
import subprocess
import sys
import weakref

import pytest

from oracles import (
    check_map,
    find_retraction,
    reference_ext1_with_cocycles,
    reference_ext_dims,
    reference_extension_middle,
    reference_ideal_span,
)
from test_algebra import _reference_cases

import qstrat
from qstrat import algebra as A
from qstrat import cli
from qstrat import rep as R
from qstrat.algebra import Algebra
from qstrat.examples import get_example
from qstrat.exactla import (
    Matrix,
    field_from_name,
    independent,
    reduced_span,
    span_pivots,
    span_rref,
)

FIELDS = ["Q", "Fp:1000003"]
SRC = os.path.dirname(os.path.dirname(qstrat.__file__))


def _alternating(name, pattern="+-"):
    _, spec = get_example(name)
    return ",".join(f"{e}={pattern[i % len(pattern)]}" for i, e in enumerate(spec.poset.elements))


def _commands():
    out = []
    for name in ("A", "B", "semiinf:3", "qsl2:3", "gl11:-1:2", "dzig:-1:2"):
        out.append(["tilting", f"examples:{name}"])
        out.append(["tilting", f"examples:{name}", f"--eps={_alternating(name)}"])
        # the all-minus climbs, which rigidity no longer makes
        out.append(["tilting", f"examples:{name}", f"--eps={_alternating(name, '-')}"])
        out.append(["ringel", f"examples:{name}"])
        out.append(["verify", f"examples:{name}", "--nmax", "2", f"--eps={_alternating(name)}"])
    # tilting climbs on larger windows, for more extension calls to replay
    for name in ("semiinf:4", "qsl2:4"):
        out.append(["tilting", f"examples:{name}"])
        out.append(["tilting", f"examples:{name}", f"--eps={_alternating(name)}"])
    out.append(["tower", "semiinf", "--window", "2,3,4", "--labels", "0,1"])
    return out


def _key(rep):
    acts = tuple(sorted((k, tuple(map(tuple, m.rows))) for k, m in rep.act.items()))
    return id(rep.algebra), tuple(sorted(rep.dims.items())), acts


_RECORDS = {}


def _recorded(field):
    """The distinct calls of ext_dims, ext1_with_cocycles, extension_middle
    and Algebra._truncate_lower made by the commands over a field, with the
    new results.  The commands run on fresh algebras, so that no memo an
    earlier test left hides a call."""
    if field in _RECORDS:
        return _RECORDS[field]
    rec = {"ext_dims": {}, "ext1": {}, "middle": [], "truncate": []}
    real = R.ext_dims, R.ext1_with_cocycles, R.extension_middle, Algebra._truncate_lower
    keep = []  # keeps recorded algebras alive, so that their ids stay distinct

    def ext_dims(resolution, n, nmax):
        got = real[0](resolution, n, nmax)
        m = resolution.rep
        rec["ext_dims"].setdefault((_key(m), _key(n), nmax), (m, n, nmax, resolution, got))
        return got

    def ext1(m, n, presentation):
        got = real[1](m, n, presentation)
        rec["ext1"].setdefault((_key(m), _key(n)), (m, n, got))
        return got

    def middle(m, n, cocycle, context):
        got = real[2](m, n, cocycle, context)
        rec["middle"].append(((m, n, cocycle, context), got))
        return got

    def truncate(self, kill):
        keep.append(self)
        rec["truncate"].append((self, kill))
        return real[3](self, kill)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(A, "_SHARED", weakref.WeakValueDictionary())
        mp.setattr(R, "ext_dims", ext_dims)
        mp.setattr(R, "ext1_with_cocycles", ext1)
        mp.setattr(R, "extension_middle", middle)
        mp.setattr(Algebra, "_truncate_lower", truncate)
        for argv in _commands():
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(["--field", field, *argv]) in (0, 1)
    _RECORDS[field] = rec
    return rec


def _rank(f, vecs, length):
    return len(span_rref(f, vecs, length).rows)


@pytest.mark.parametrize("field", FIELDS)
def test_ext_dims_match_intertwiner_reference(field):
    calls = _recorded(field)["ext_dims"].values()
    assert len(calls) > 100
    for m, n, nmax, res, got in calls:
        assert got == reference_ext_dims(m, n, nmax, resolution=res)


def _values_on_generators(phi, labels):
    """A map out of sum_j A e_{labels[j]}, by its values on the generators."""
    rows = R._generator_rows(phi.source.algebra, labels)
    idem = phi.source.algebra.idempotent_index
    return [x for j, v in enumerate(labels) for x in phi.mats[v].column(rows[v].index((j, idem[v])))]


@pytest.mark.parametrize("field", FIELDS)
def test_induced_maps_are_composition_with_the_differential(field):
    """Each block matrix of ext_dims is phi -> phi . d in yoneda_hom
    coordinates, on every recorded resolution: its columns are the values
    on the generators of the composites of the basis maps."""
    f = field_from_name(field)
    blocks = 0
    for _, n, _, res, _ in _recorded(field)["ext_dims"].values():
        labels = res.term_labels
        for k in range(1, len(res.terms)):
            got = R._yoneda_induced(res.maps[k], labels[k], labels[k - 1], n)
            basis = R.yoneda_hom(res.terms[k - 1], labels[k - 1], n)
            cols = [_values_on_generators(phi.compose(res.maps[k]), labels[k]) for phi in basis]
            assert got == Matrix.from_columns(f, cols, nrows=sum(n.dims[v] for v in labels[k]))
            blocks += len(labels[k - 1]) > 1 and len(labels[k]) > 0
    assert blocks > 50


@pytest.mark.parametrize("field", FIELDS)
def test_ext1_cocycles_span_the_reference_classes(field):
    calls = _recorded(field)["ext1"].values()
    assert len(calls) > 100 and any(got[0] for _, _, got in calls)
    f = field_from_name(field)
    for m, n, (dim, cocycles, context) in calls:
        want_dim, want, (K, incl, P0, _) = reference_ext1_with_cocycles(m, n)
        assert dim == want_dim
        hom_K, coboundaries = context[4], context[5]
        d = len(hom_K)
        # the Yoneda image of Hom(P0, n) is the reference's
        image = R.hom_coords([phi.compose(incl) for phi in R.hom_space(P0, n)], hom_K)
        assert _rank(f, coboundaries, d) == _rank(f, image, d) == _rank(f, image + coboundaries, d)
        new = R.hom_coords(cocycles, hom_K)
        old = R.hom_coords(want, hom_K)
        base = _rank(f, coboundaries, d)
        assert _rank(f, coboundaries + new, d) == base + dim
        assert _rank(f, coboundaries + old, d) == base + dim
        assert _rank(f, coboundaries + new + old, d) == base + dim


@pytest.mark.parametrize("field", FIELDS)
def test_yoneda_hom_is_a_basis_of_hom(field):
    """On every first resolution term recorded: maps that are module maps,
    as many as hom_space finds, and independent."""
    f = field_from_name(field)
    for _, n, (_, _, context) in _recorded(field)["ext1"].values():
        K, incl, P0, cover, _, _ = context
        labels = R.syzygy(cover.target)[4]
        basis = R.yoneda_hom(P0, labels, n)
        assert len(basis) == len(R.hom_space(P0, n))
        for phi in basis:
            assert check_map(phi)
        flat = [R._flatten_map(phi) for phi in basis]
        assert len(independent(f, flat, len(flat[0]) if flat else 0)) == len(basis)


def _split_and_inclusion(m, n, cocycle, context):
    """extension_middle's split verdict, and the inclusion n -> E from the
    reference, which builds the same E and still gives its maps."""
    E, split = R.extension_middle(m, n, cocycle, context)
    E_ref, incl_n, _, split_ref = reference_extension_middle(m, n, cocycle, context)
    assert (E_ref.dims, E_ref.act, split_ref) == (E.dims, E.act, split)
    return split, incl_n


@pytest.mark.parametrize("field", FIELDS)
def test_split_verdict_matches_retraction_search(field):
    middles = _recorded(field)["middle"]
    assert len(middles) > 10
    for args, (E, split) in middles:
        E_ref, incl_n, _, _ = reference_extension_middle(*args)
        assert (E_ref.dims, E_ref.act) == (E.dims, E.act)
        assert split == (find_retraction(incl_n) is not None)


@pytest.mark.parametrize("field", FIELDS)
def test_coboundary_splits(field):
    """A nonzero coboundary phi . incl gives split=True, as the retraction
    search does; a chosen cocycle plus a coboundary does not split."""
    checked = 0
    for m, n, (dim, cocycles, context) in _recorded(field)["ext1"].values():
        K, incl, P0, cover, hom_K, _ = context
        labels = R.syzygy(m)[4]
        for phi in R.yoneda_hom(P0, labels, n):
            cob = phi.compose(incl)
            if cob.is_zero():
                continue
            split, incl_n = _split_and_inclusion(m, n, cob, context)
            assert split and find_retraction(incl_n) is not None
            if dim:
                split, incl_n = _split_and_inclusion(m, n, cocycles[0] + cob, context)
                assert not split and find_retraction(incl_n) is None
            checked += 1
            break
        if checked >= 12:
            break
    assert checked >= 12


@pytest.mark.parametrize("field", FIELDS)
def test_ideal_span_matches_dense_reference(field):
    f = field_from_name(field)
    cases = [(alg, kill) for _, alg, kill in _reference_cases(f)]
    cases += [(alg, frozenset(kill)) for alg, kill in _recorded(field)["truncate"]]
    assert len(cases) > 60
    for alg, kill in cases:
        got, want = alg._ideal_span(set(kill)), reference_ideal_span(alg, set(kill))
        assert got.rows == want.rows
        assert span_pivots(got) == span_pivots(want)
        assert [[type(x) for x in r] for r in got.rows] == [[type(x) for x in r] for r in want.rows]


_TOWER_WORK = """
import contextlib, io, sys
from qstrat import cli, rep as R, tilting as TL
calls, unknowns, loops = [], [], []
hom_space, extension_loop = R.hom_space, TL._extension_loop

def counted_hom(m, n):
    calls.append(1)
    unknowns.append(sum(m.dims[v] * n.dims[v] for v in m.dims))
    return hom_space(m, n)

def counted_loop(*args):
    loops.append(1)
    return extension_loop(*args)

R.hom_space, TL._extension_loop = counted_hom, counted_loop
argv = ["--field", sys.argv[1], "tower", "semiinf", "--window", "2,3,4,5", "--labels", "0,1"]
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(argv)
print(code, len(calls), sum(unknowns), len(loops))
"""


@pytest.mark.parametrize("field", FIELDS)
def test_tower_hom_work(field):
    """The work-count guard of the tower job, in a fresh interpreter (in a
    test session, algebras that earlier tests left alive share their
    memos with the tower's).  Hom out of every resolution term is read
    off, not solved for (200 calls and 1,056 unknowns before), and each
    window's climbs start from the window below, which is its corner (104
    calls, 472 unknowns and 24 extension loops before)."""
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", _TOWER_WORK, field], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    code, calls, unknowns, loops = map(int, done.stdout.split())
    assert code == 0
    assert (calls, unknowns, loops) == (59, 248, 9)


def test_reduced_span_is_the_rref():
    f = field_from_name("Q")
    rows = [(4, {4: 1, 5: 2}), (0, {0: 1, 2: 3}), (1, {1: 1})]
    got = Matrix(f, [[1, 0, 3, 0, 0, 0], [0, 1, 0, 0, 0, 0], [0, 0, 0, 0, 1, 2]], 6)
    span = reduced_span(f, rows, 6)
    assert span.rows == got.rows and span_pivots(span) == [0, 1, 4]
    assert span.rows == span_rref(f, got.rows, 6).rows
