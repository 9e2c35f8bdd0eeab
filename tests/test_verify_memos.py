"""The memos a verify job reads twice, and the one-pass poset closure.

StandardFamily certifies each vertex flag, solves each Hom orthogonality
dimension and keeps one resolution per signed standard, keyed by the
modules each reads: where a stratum algebra has zero radical the proper
(co)standard is the (co)standard, so sign vectors that differ only there
share them.  Each resolution step comes from the algebra's presentation
memo, so resolutions with equal syzygies share their tails; Ext^1
vanishing is read off these resolutions, whose Yoneda matrices Ext
orthogonality shares.  Poset computes its down-sets in one topological
pass, gated here by the fixpoint it replaced."""

import json
import random
import weakref
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import ext1_dim, reference_closure, unshared_resolution

from qstrat import algebra as A
from qstrat import cli
from qstrat import rep as R
from qstrat import strat as S
from qstrat.examples import get_example, realize
from qstrat.exactla import QQ, field_from_name

EXAMPLES = ["A", "B", "kxk", "point", "semiinf:3", "qsl2:3", "gl11:-1:2", "dzig:-1:2"]
FIELDS = ["Q", "Fp:1000003"]
# the loop ladder (tests/loop_ladder.json) on [0, 2]: its stratum algebras
# k[z]/(z^2) make the signs select different modules
LOOP = "loop:0:2"


def _example(name, field=QQ):
    """A built-in example, or the loop ladder's window for LOOP."""
    if name != LOOP:
        return get_example(name, field)
    family = json.loads((Path(__file__).parent / "loop_ladder.json").read_text())["family"]
    return realize(family, 0, 2, field, None)


def _signs(spec, pattern):
    return {e: pattern[i % len(pattern)] for i, e in enumerate(spec.poset.elements)}


# -- the poset closure --------------------------------------------------------


def _pairs_of(poset):
    return {(a, b) for a in poset.elements for b in poset.elements if poset.leq(a, b)}


@st.composite
def _dags(draw):
    """Covers a < b along a drawn order, with elements and covers shuffled."""
    n = draw(st.integers(1, 12))
    order = draw(st.permutations([f"e{i}" for i in range(n)]))
    pairs = [(order[i], order[j]) for i in range(n) for j in range(i + 1, n)]
    covers = draw(st.lists(st.sampled_from(pairs), max_size=2 * n)) if pairs else []
    rng = random.Random(draw(st.integers(0, 2**32)))
    elements = order[:]
    rng.shuffle(elements)
    rng.shuffle(covers)
    return elements, covers


@settings(max_examples=150, deadline=None)
@given(_dags())
def test_leq_matches_the_fixpoint_on_random_dags(dag):
    elements, covers = dag
    poset = S.Poset(elements, covers)
    assert _pairs_of(poset) == reference_closure(poset)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 150), st.booleans())
@example(150, False)
@example(150, True)
def test_leq_matches_the_fixpoint_on_chains(n, reverse):
    labels = [str(i) for i in range(n)]
    covers = list(zip(labels, labels[1:]))
    poset = S.Poset(labels, [(b, a) for a, b in covers] if reverse else covers)
    assert _pairs_of(poset) == reference_closure(poset)


@st.composite
def _cyclic(draw):
    """Random covers between distinct elements plus a drawn cycle through
    two or more of them, with elements and covers shuffled."""
    n = draw(st.integers(2, 10))
    elements = [f"e{i}" for i in range(n)]
    pairs = [(a, b) for a in elements for b in elements if a != b]
    covers = draw(st.lists(st.sampled_from(pairs), max_size=2 * n))
    cycle = draw(st.permutations(elements))[: draw(st.integers(2, n))]
    covers += list(zip(cycle, cycle[1:] + cycle[:1]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    rng.shuffle(elements)
    rng.shuffle(covers)
    return elements, covers


@settings(max_examples=150, deadline=None)
@given(_cyclic())
def test_cyclic_covers_raise_the_fixpoint_message(graph):
    elements, covers = graph
    with pytest.raises(S.StratError) as want:
        reference_closure(SimpleNamespace(elements=tuple(elements), covers=tuple(covers)))
    with pytest.raises(S.StratError) as got:
        S.Poset(elements, covers)
    assert str(got.value) == str(want.value)


def test_self_cover_is_refused():
    with pytest.raises(S.StratError, match=r"cover \(1,1\) relates an element to itself"):
        S.Poset(["1", "2"], [("1", "1")])


# -- resolutions grown in place -------------------------------------------------


def _same_resolution(a, b):
    return (
        a.term_labels == b.term_labels
        and [P.dim_vector() for P in a.terms] == [P.dim_vector() for P in b.terms]
        and a.maps == b.maps
        and a.terminated == b.terminated
    )


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("name", EXAMPLES + [LOOP])
def test_extend_matches_a_fresh_resolution(name, field):
    alg, spec = _example(name, field_from_name(field))
    fam = S.standard_family(alg, spec)
    for b in sorted(alg.vertices):
        for m in (fam.standard(b), fam.proper_standard(b)):
            for k, longer in ((0, 1), (0, 4), (1, 3), (2, 4)):
                res = R.Resolution(m, k)
                assert res.extend(longer) is res
                assert _same_resolution(res, R.Resolution(m, longer))
                # a shorter length leaves it as it is
                assert _same_resolution(res.extend(k), R.Resolution(m, longer))


class _OneHash:
    """A module content key whose hash every other key shares."""

    def __init__(self, key):
        self.key = key

    def __hash__(self):
        return 0

    def __eq__(self, other):
        return self.key == other.key


@pytest.mark.parametrize("collide", [False, True], ids=["hash", "one-hash"])
@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("name", EXAMPLES + [LOOP])
def test_shared_resolutions_match_unshared_ones(name, field, collide, monkeypatch):
    """Every signed standard's and costandard's resolution, at +, - and
    alternating signs, equals one built from direct syzygy calls, and its
    first map targets the module itself.  With every content key hashed
    alike, each memo lookup meets modules of other contents, which only
    the key's equality tells apart."""
    monkeypatch.setattr(A, "_SHARED", weakref.WeakValueDictionary())
    if collide:
        monkeypatch.setattr(R, "_content_key", lambda rep, real=R._content_key: _OneHash(real(rep)))
    alg, spec = _example(name, field_from_name(field))
    checked = 0
    for pattern in ("+", "-", "+-"):
        fam = S.standard_family(alg, spec.with_signs(_signs(spec, pattern)))
        for b in sorted(alg.vertices):
            for m, res in (
                (fam.signed_standard(b), fam.resolution(b, 4)),
                (fam.signed_costandard(b), R.Resolution(fam.signed_costandard(b), 4)),
            ):
                assert res.rep is m and (not res.maps or res.maps[0].target is m)
                assert _same_resolution(res, unshared_resolution(m, 4))
                checked += 1
    assert checked == 6 * len(alg.vertices)


# -- where sharing stops ----------------------------------------------------------


def _fresh(name):
    """The example on an algebra of its own, with empty memos."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(A, "_SHARED", weakref.WeakValueDictionary())
        return _example(name)


def _flag_json(cert, field):
    return cert.to_json(field) if isinstance(cert, S.FlagCertificate) else (cert.stuck.dim_vector(), cert.peeled)


@pytest.mark.parametrize("name", ["B", "A", "semiinf:3", "qsl2:3", LOOP])
def test_shared_flags_match_a_fresh_family(name, monkeypatch):
    """One family certifies its vertex flags at four sign vectors in turn;
    each sign vector's flags equal those of a family on a fresh algebra.
    On a highest-weight window the second and later sign vectors certify
    no new flag, and the proper (co)standard is the (co)standard object;
    on A, B and the loop ladder, whose stratum algebras have dimension 2,
    nothing is shared."""
    calls = []
    real = S.certify_flag
    monkeypatch.setattr(S, "certify_flag", lambda *args: calls.append(args) or real(*args))
    alg, spec = _fresh(name)
    fam = S.standard_family(alg, spec)
    highest = S.check_simple_strata(alg, spec).ok
    assert highest == (name not in ("A", "B", LOOP))
    for b in alg.vertices:
        assert (fam.proper_standard(b) is fam.standard(b)) == highest
        assert (fam.proper_costandard(b) is fam.costandard(b)) == highest
    n = len(alg.vertices)
    for i, pattern in enumerate(("+", "-", "+-", "-+")):
        signs = _signs(spec, pattern)
        before = len(calls)
        falg, fspec = _fresh(name)
        view = S.standard_family(alg, spec.with_signs(signs))
        fresh = S.standard_family(falg, fspec.with_signs(signs))
        for kind in ("projective", "injective"):
            for b in sorted(alg.vertices):
                got = view.vertex_flag(kind, b)
                want = fresh.vertex_flag(kind, b)
                assert _flag_json(got, alg.field) == _flag_json(want, falg.field)
        new = len(calls) - before - 2 * n  # the fresh family certifies 2n
        assert new == (2 * n if i == 0 or not highest else 0)


# -- what a verify job builds ---------------------------------------------------


def _count_verify(argv, monkeypatch, capsys):
    """Run a verify job on fresh algebras (no algebra, and so no memo, is
    shared with an earlier job); return its resolutions, the modules their
    steps presented, the number of calls it made to each counted
    function, and its report."""
    built, presented, calls = [], [], {}

    class Counted(R.Resolution):
        def __init__(self, rep, max_len):
            built.append(self)
            super().__init__(rep, max_len)

    monkeypatch.setattr(A, "_SHARED", weakref.WeakValueDictionary())
    monkeypatch.setattr(R, "Resolution", Counted)
    for module, name in ((R, "syzygy"), (S, "certify_flag"), (R, "hom_dim"), (R, "_yoneda_induced")):
        calls[name] = 0

        def counted(*args, real=getattr(module, name), name=name):
            calls[name] += 1
            if name == "syzygy":
                presented.append(args[0])
            return real(*args)

        monkeypatch.setattr(module, name, counted)
    assert cli.main(argv) == 0
    return built, presented, calls, capsys.readouterr().out


def _distinct(modules):
    """The modules up to equal dimensions and matrices."""
    out = []
    for m in modules:
        if not any(m.algebra is x.algebra and m.dims == x.dims and m.act == x.act for x in out):
            out.append(m)
    return out


def _verify_signed(name, pattern, monkeypatch, capsys):
    _, spec = get_example(name)
    signs = _signs(spec, pattern)
    eps = ",".join(f"{e}={s}" for e, s in signs.items())
    built, presented, calls, out = _count_verify(["verify", f"examples:{name}", f"--eps={eps}"], monkeypatch, capsys)
    return len(spec.poset.elements), signs, built, presented, calls, out


@pytest.mark.parametrize("pattern", ["+", "+-"])
@pytest.mark.parametrize("name", ["B", "semiinf:3", "qsl2:3", "gl11:-1:2"])
def test_verify_builds_one_resolution_per_signed_standard(name, pattern, monkeypatch, capsys):
    """One resolution per signed standard, and one syzygy call per distinct
    module any of them presents: every step of every resolution is one of
    these.  A vertex flag is certified once per the sections it reads: 4n
    certify_flag calls on a highest-weight window or with all signs plus
    (the plus-sign flags of the fully stratified check are the job's own),
    6n on B with mixed signs."""
    n, _, built, presented, calls, out = _verify_signed(name, pattern, monkeypatch, capsys)
    assert '"ext1_vanishing[' in out
    assert len(built) == n and len({id(res.rep) for res in built}) == n
    steps = [m for res in built for m in [res.rep, *res.syzygies][: len(res.terms)]]
    assert calls["syzygy"] == len(presented) == len(_distinct(presented)) == len(_distinct(steps))
    assert calls["certify_flag"] == (6 if name == "B" and pattern != "+" else 4) * n


@pytest.mark.parametrize("pattern", ["+", "+-"])
@pytest.mark.parametrize("name", ["B", "semiinf:3", "qsl2:3", "gl11:-1:2"])
def test_verify_solves_each_hom_and_yoneda_matrix_once(name, pattern, monkeypatch, capsys):
    """hom_orthogonality is solved once per pair of modules: n^2 pairs on a
    highest-weight window, where the signs change no module; on B, n^2 at
    the job's signs plus the all-plus pairs not among them.  A Yoneda
    matrix is built once per (resolution, degree, costandard): Ext^1
    vanishing and Ext orthogonality (nmax 3) share it."""
    n, signs, built, _, calls, out = _verify_signed(name, pattern, monkeypatch, capsys)
    assert '"ext_orthogonality[' in out
    plus = sum(s == "+" for s in signs.values())
    assert calls["hom_dim"] == (2 * n * n - plus * plus if name == "B" else n * n)
    assert calls["_yoneda_induced"] == n * sum(min(len(res.terms), 5) - 1 for res in built)


@pytest.mark.parametrize("eps", ["0=+,1=+,2=+,3=+,4=+,5=+", "0=+,1=+,2=-,3=-,4=+,5=+"], ids=["plus", "mixed"])
def test_verify_semiinf5_call_counts(eps, monkeypatch, capsys):
    # before the verify memos: 72 hom_dim calls for 36 pairs, and 138
    # Yoneda matrices of which 84 were distinct; before the module-keyed
    # memos and shared tails: 24 (plus) or 36 (mixed) certify_flag calls,
    # 36 or 56 hom_dim calls, and 20 syzygy calls for 6 distinct modules
    _, _, calls, _ = _count_verify(["verify", "examples:semiinf:5", f"--eps={eps}"], monkeypatch, capsys)
    assert calls == {"syzygy": 6, "certify_flag": 24, "hom_dim": 36, "_yoneda_induced": 84}


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("pattern", ["+", "+-"])
@pytest.mark.parametrize("name", EXAMPLES)
def test_ext1_vanishing_matches_the_cocycle_count(name, pattern, field):
    alg, spec = get_example(name, field_from_name(field))
    signs = _signs(spec, pattern)
    rep = S.check_stratified(alg, spec.with_signs(signs))
    fam = S.standard_family(alg, spec.with_signs(signs))
    checks = [c for c in rep.checks if c.name.startswith("ext1_vanishing[")]
    flags_ok = all(c.ok for c in rep.checks if c not in checks)
    assert len(checks) == (len(alg.vertices) ** 2 if flags_ok else 0)
    for c in checks:
        b, cc = c.name[len("ext1_vanishing[") : -1].split(",")
        want = ext1_dim(fam.signed_standard(b), fam.signed_costandard(cc))
        assert c.details["dim"] == want
