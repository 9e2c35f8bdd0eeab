"""The graded build path against the dense and linear code it replaced.

`Algebra.verify` lists composable triples from per-target index lists and
sums both sides of associativity straight from the table.  `_Rewriter`
finds tips through an index (rank per tip, set of tip lengths); its
completion takes the tips a new tip can overlap from per-letter indexes
(tips by first letter, tips by the letters they contain), in rank order,
and skips pairs of monomial rules; `normal_words` extends a word only by
the arrows into its source.  `build_algebra` fills the product table over
composable pairs and looks a product that is a normal word up instead of
reducing it.  The reference code below is the earlier dense triple list,
all-pairs table, linear rule scans, all-pairs completion and all-arrow
word extension; every built-in example, every build window of the
benchmark decks and every fuzz presentation must give the same rules,
normal words, structure constants and verify verdicts, over Q and
F_1000003.  The deck windows' `_overlaps` and `reduce` calls are pinned."""

import random

import pytest

from oracles import basis_element
from test_fuzz import build_finite, random_monomial_algebra

from qstrat import examples as EX
from qstrat.algebra import (
    Algebra,
    AlgebraError,
    Arrow,
    BasisElement,
    QuiverPresentation,
    _Rewriter,
    build_algebra,
)
from qstrat.examples import get_example
from qstrat.exactla import field_from_name

FIELDS = ["Q", "Fp:1000003"]
EXAMPLES = ["A", "B", "kxk", "point", "semiinf:3", "qsl2:3", "gl11:-1:2", "dzig:-1:2"]
DECK_BUILDS = ["semiinf:59", "dzig:-30:29", "qsl2:59", "semiinf:99", "dzig:-70:69"]
FUZZ_SEEDS = (
    [(s, {}) for s in range(16)]
    + [(100 + s, {}) for s in range(10)]
    + [(200 + s, {}) for s in range(10)]
    + [(300 + s, {}) for s in range(8)]
    + [(400 + s, {"max_vertices": 2}) for s in range(8)]
    + [(500 + s, {}) for s in range(24)]
)


# -- the reference code ---------------------------------------------------------


class _LinearRewriter(_Rewriter):
    """Rule lookup by scanning every rule, completion over all tip pairs.
    Records every word it looks up and every polynomial its completion
    pops."""

    def __init__(self, pres):
        super().__init__(pres)
        self.looked_up, self.popped = set(), []

    def _find_rule(self, w):
        self.looked_up.add(w)
        n = len(w)
        for tip, rhs in self.rules.items():
            t = len(tip)
            if t > n:
                continue
            for s in range(n - t + 1):
                if w[s : s + t] == tip:
                    return (w[:s], tip, w[s + t :], rhs)
        return None

    def _find_rule_fast(self, w):
        self.looked_up.add(w)
        n = len(w)
        for tip in self.rules:
            t = len(tip)
            if t <= n and w[n - t :] == tip:
                return True
        return False

    def complete(self, bound):
        f = self.field
        queue = [self.normalize_poly(rel) for rel in self.pres.relations]
        while queue:
            poly = queue.pop()
            self.popped.append(poly)
            red = self.reduce(poly, bound)
            if not red:
                continue
            tip = self.add_rule(red, bound)
            new_pairs = [(tip, t2) for t2 in list(self.rules)] + [
                (t2, tip) for t2 in list(self.rules)
            ]
            for t1, t2 in new_pairs:
                for ov, pos2 in self._overlaps(t1, t2):
                    if len(ov) > bound:
                        continue
                    s1 = self._subst(ov, t1, self.rules[t1], 0)
                    s2 = self._subst(ov, t2, self.rules[t2], pos2)
                    diff = dict(s1)
                    for w, c in s2.items():
                        nc = f.sub(diff.get(w, f.zero), c)
                        if f.is_zero(nc):
                            diff.pop(w, None)
                        else:
                            diff[w] = nc
                    if diff:
                        queue.append(diff)


def _reference_build(pres):
    """(rewriter, algebra) with the linear rewriter and the all-pairs table;
    the algebra is not verified."""
    d = pres.degree_bound
    rw = _LinearRewriter(pres)
    rw.complete(2 * d)
    words_by_len = rw.normal_words(d)
    basis, idempotents, index_of_word = [], {}, {}
    for v in sorted(pres.vertices, key=str):
        idempotents[v] = len(basis)
        basis.append(BasisElement(f"e_{v}", v, v, ()))
    for length in sorted(words_by_len):
        if length == 0:
            continue
        for w, _ in sorted(words_by_len[length], key=lambda ws: rw.word_key(ws[0])):
            sig_src, sig_tgt = pres.path_signature(w)
            index_of_word[w] = len(basis)
            basis.append(BasisElement("*".join(w), sig_src, sig_tgt, w))
    f = pres.field
    mult = {}
    n = len(basis)
    for k in range(n):
        for l in range(n):
            bk, bl = basis[k], basis[l]
            if bk.src != bl.tgt:
                continue
            concat = bk.word + bl.word
            if not concat:
                mult[(k, l)] = ((k, f.one),)
                continue
            red = rw.reduce({concat: f.one}, 2 * d)
            entries = [(index_of_word[w] if w else idempotents[bk.tgt], c) for w, c in red.items()]
            if entries:
                mult[(k, l)] = tuple(sorted(entries))
    gens = [k for k, b in enumerate(basis) if b.word and len(b.word) == 1]
    return rw, Algebra(f, pres.vertices, basis, idempotents, mult, generators=tuple(gens), presentation=pres)


class _PoppedRewriter(_Rewriter):
    """The indexed rewriter, recording every polynomial it reduces; run
    through completion only, those are the polynomials completion pops."""

    def __init__(self, pres):
        super().__init__(pres)
        self.popped = []

    def reduce(self, poly, bound):
        self.popped.append(poly)
        return super().reduce(poly, bound)


def _dense_triples(alg):
    return (
        (k, l, m)
        for k in range(alg.dim)
        for l in range(alg.dim)
        if alg.src(k) == alg.tgt(l)
        for m in range(alg.dim)
        if alg.src(l) == alg.tgt(m)
    )


def _reference_verify(alg):
    """The earlier check: AlgElement products over the dense triple list."""
    one = alg.one()
    for k in range(alg.dim):
        b = basis_element(alg, k)
        if one * b != b or b * one != b:
            raise AlgebraError(f"identity fails on basis element {k}")
    for (k, l), prod in alg.mult.items():
        if alg.src(k) != alg.tgt(l):
            raise AlgebraError(f"grading violated by product ({k},{l})")
        for m, _ in prod:
            if alg.tgt(m) != alg.tgt(k) or alg.src(m) != alg.src(l):
                raise AlgebraError(f"grading violated in product ({k},{l})")
    for k, l, m in _dense_triples(alg):
        bk, bl, bm = basis_element(alg, k), basis_element(alg, l), basis_element(alg, m)
        if (bk * bl) * bm != bk * (bl * bm):
            raise AlgebraError(f"associativity fails at ({k},{l},{m})")
    return True


# -- the presentations -----------------------------------------------------------


def _example_presentations(names, field):
    """Every presentation that building the named examples passes to
    build_algebra (the wider window of a truncated family included)."""
    seen = []

    def record(pres):
        seen.append(pres)
        return build_algebra(pres)

    mp = pytest.MonkeyPatch()
    mp.setattr(EX, "build_algebra", record)
    try:
        for name in names:
            get_example(name, field)
    finally:
        mp.undo()
    return seen


def _fuzz_presentations(field):
    return [build_finite(random_monomial_algebra(s, field=field, **kw))[0] for s, kw in FUZZ_SEEDS]


def _binomial_presentation(seed, field):
    """A random quiver with relations w - c w' between parallel paths of
    length 2 or 3 (a monomial one where w has no parallel path), cut at
    the bound when it is not finite within it.  Unlike the monomial fuzz
    draws, their completions meet nonzero overlaps and inclusions."""
    rng = random.Random(seed)
    vertices = [str(i) for i in range(rng.randint(1, 3))]
    arrows = [Arrow(f"a{t}", rng.choice(vertices), rng.choice(vertices)) for t in range(rng.randint(2, 3))]
    src, tgt = {a.name: a.src for a in arrows}, {a.name: a.tgt for a in arrows}
    paths = {1: [(a.name,) for a in arrows]}
    for n in (2, 3):
        paths[n] = [w + (a.name,) for w in paths[n - 1] for a in arrows if a.tgt == src[w[-1]]]
    relations = []
    for _ in range(rng.randint(1, 4)):
        n = rng.choice((2, 3))
        if not paths[n]:
            continue
        w = rng.choice(paths[n])
        parallel = [v for v in paths[n] if v != w and (src[v[-1]], tgt[v[0]]) == (src[w[-1]], tgt[w[0]])]
        rel = [(field.one, w)]
        if parallel:
            rel.append((field.of(-rng.randint(1, 3)), rng.choice(parallel)))
        relations.append(rel)
    pres = QuiverPresentation(field=field, vertices=vertices, arrows=arrows, relations=relations, degree_bound=5)
    return build_finite(pres)[0]


def _assert_same_build(pres, triples=None):
    new = _PoppedRewriter(pres)
    new.complete(2 * pres.degree_bound)
    ref, ref_alg = _reference_build(pres)
    assert new.popped == ref.popped  # the completion queue
    assert list(new.rules) == list(ref.rules)  # tips, in insertion order
    assert new.rules == ref.rules  # right-hand sides
    assert new.normal_words(pres.degree_bound) == ref.normal_words(pres.degree_bound)
    for w in sorted(ref.looked_up, key=ref.word_key):
        assert new._find_rule(w) == ref._find_rule(w), w
        assert new._find_rule_fast(w) == ref._find_rule_fast(w), w
    alg = build_algebra(pres)
    assert alg.to_json() == ref_alg.to_json()
    assert list(alg.mult) == list(ref_alg.mult)
    assert list(alg._checked_triples()) == (list(_dense_triples(alg)) if triples is None else triples)
    assert alg.verify() and alg.verified


@pytest.mark.parametrize("field_name", FIELDS)
def test_examples_build_as_the_reference(field_name):
    for pres in _example_presentations(EXAMPLES, field_from_name(field_name)):
        _assert_same_build(pres)


@pytest.mark.parametrize("name", DECK_BUILDS)
def test_deck_windows_build_as_the_reference(name):
    q, fp = (_example_presentations([name], field_from_name(f))[0] for f in FIELDS)
    triples = list(_dense_triples(build_algebra(q)))  # the same grading over F_p
    for pres in (q, fp):
        _assert_same_build(pres, triples)


@pytest.mark.parametrize("field_name", FIELDS)
def test_fuzz_presentations_build_as_the_reference(field_name):
    presentations = _fuzz_presentations(field_from_name(field_name))
    assert len(presentations) == len(FUZZ_SEEDS)
    for pres in presentations:
        _assert_same_build(pres)


@pytest.mark.parametrize("field_name", FIELDS)
def test_binomial_presentations_build_as_the_reference(field_name):
    field = field_from_name(field_name)
    for seed in range(24):
        _assert_same_build(_binomial_presentation(seed, field))


def _graded_only(vertices, grades):
    """An algebra with the given grading and no products beyond the units;
    enough to list triples, not to verify."""
    basis = [BasisElement(f"e_{v}", v, v, None) for v in vertices]
    basis += [BasisElement(f"b{i}", s, t, None) for i, (t, s) in enumerate(grades)]
    units = {v: i for i, v in enumerate(vertices)}
    return Algebra(field_from_name("Q"), vertices, basis, units, {})


@pytest.mark.parametrize(
    "vertices, grades",
    [
        (["1"], [("1", "1")] * 80),  # 81**3 triples
        (["1"], [("1", "1")] * 79),  # 80**3 triples
        (["1", "2"], [("1", "1")] * 75 + [("1", "2")] * 10 + [("2", "2")] * 5),
        (["1", "2"], [("1", "1")] * 80 + [("1", "2")] * 10 + [("2", "2")] * 5),
    ],
)
def test_triples_match_the_dense_list_at_every_size(vertices, grades):
    alg = _graded_only(vertices, grades)
    assert list(alg._checked_triples()) == list(_dense_triples(alg))


def _perturbed(alg, rng):
    """Copies of alg's table with one product changed: a coefficient
    doubled, the product dropped, or one added to a coefficient of the same
    graded piece."""
    f = alg.field
    keys = sorted(alg.mult)
    out = []
    for _ in range(3):
        key = rng.choice(keys)
        prod = dict(alg.mult[key])
        m = rng.choice(sorted(prod))
        j = rng.choice(alg.by_grade[(alg.tgt(m), alg.src(m))])
        doubled = prod | {m: f.add(prod[m], prod[m])}
        added = prod | {j: f.add(prod.get(j, f.zero), f.one)}
        for change, terms in (("double", doubled), ("drop", None), ("add", added)):
            mult = dict(alg.mult)
            if terms is None:
                del mult[key]
            else:
                mult[key] = tuple(sorted((q, c) for q, c in terms.items() if not f.is_zero(c)))
            out.append((key, change, mult))
    return out


@pytest.mark.parametrize("field_name", FIELDS)
@pytest.mark.parametrize("name", ["A", "B", "semiinf:3", "qsl2:3", "gl11:-1:2", "dzig:-1:2", "semiinf:59"])
def test_perturbed_constants_fail_as_the_reference(name, field_name):
    alg, _ = get_example(name, field_from_name(field_name))
    rng = random.Random(name)
    raised = 0
    for key, change, mult in _perturbed(alg, rng):
        outcomes = []
        for check in (Algebra.verify, _reference_verify):
            broken = Algebra(alg.field, alg.vertices, alg.basis, alg.idempotent_index, mult)
            try:
                outcomes.append(check(broken))
            except AlgebraError as e:
                outcomes.append(str(e))
        assert outcomes[0] == outcomes[1], (key, change)
        raised += outcomes[0] is not True
    assert raised >= 3


def _one_vertex(products):
    """One vertex e and basis e, then the named elements in order; the
    table holds the unit products and the given {(x, y): {z: c}}."""
    f = field_from_name("Q")
    names = ["e"] + sorted({x for xy, zs in products.items() for x in (*xy, *zs)})
    index = {x: i for i, x in enumerate(names)}
    basis = [BasisElement(x, "1", "1", None) for x in names]
    mult = {(0, k): ((k, f.one),) for k in index.values()}
    mult.update({(k, 0): ((k, f.one),) for k in index.values()})
    for (x, y), zs in products.items():
        mult[(index[x], index[y])] = tuple(sorted((index[z], f.of(c)) for z, c in zs.items()))
    return Algebra(f, ["1"], basis, {"1": 0}, mult), index


def test_a_triple_with_one_product_absent_is_checked():
    # a b = 0 but a (b c) = a d = g: only (a, b, c) fails, and only its
    # right-hand side is nonzero
    alg, index = _one_vertex({("b", "c"): {"d": 1}, ("a", "d"): {"g": 1}})
    want = f"associativity fails at ({index['a']},{index['b']},{index['c']})"
    for check in (_reference_verify, Algebra.verify):
        fresh = Algebra(alg.field, alg.vertices, alg.basis, alg.idempotent_index, alg.mult)
        with pytest.raises(AlgebraError) as err:
            check(fresh)
        assert str(err.value) == want


def test_sums_that_cancel_compare_as_zero():
    # (k l) m = p m + q m = r - r = 0 = k (l m): associative, though the
    # left-hand side sums a zero coefficient
    alg, _ = _one_vertex({("k", "l"): {"p": 1, "q": 1}, ("p", "m"): {"r": 1}, ("q", "m"): {"r": -1}})
    assert _reference_verify(alg)
    assert alg.verify() and alg.verified


def _all_arrow_normal_words(rw, max_len):
    """normal_words as it was: every frontier word is tried against every
    arrow, in presentation order."""
    out = {0: [((), v) for v in rw.pres.vertices]}
    frontier = [((a.name,), a.src) for a in rw.pres.arrows if not rw._find_rule_fast((a.name,))]
    out[1] = frontier
    for length in range(2, max_len + 1):
        frontier = [
            (w + (a.name,), a.src)
            for w, s in frontier
            for a in rw.pres.arrows
            if a.tgt == s and not rw._find_rule_fast(w + (a.name,))
        ]
        out[length] = frontier
        if not frontier:
            break
    return out


@pytest.mark.parametrize("field_name", FIELDS)
def test_normal_words_extend_by_the_arrows_into_the_source(field_name):
    field = field_from_name(field_name)
    presentations = _example_presentations(EXAMPLES + DECK_BUILDS, field) + _fuzz_presentations(field)
    for pres in presentations + [_binomial_presentation(seed, field) for seed in range(24)]:
        rw = _Rewriter(pres)
        rw.complete(2 * pres.degree_bound)
        assert rw.normal_words(pres.degree_bound) == _all_arrow_normal_words(rw, pres.degree_bound)


# -- work counts ------------------------------------------------------------------

# (_overlaps calls, reduce calls) of build_algebra on the deck
# windows.  Pairing every tip with every rule, monomial pairs included, and
# reducing every product made (696, 1056) on semiinf:59 and dzig:-30:29,
# (4643, 1829) on qsl2:59, (1176, 1776) on semiinf:99 and (1656, 2496) on
# dzig:-70:69.
DECK_WORK = {
    "semiinf:59": (0, 643),
    "dzig:-30:29": (0, 643),
    "qsl2:59": (985, 1406),
    "semiinf:99": (0, 1083),
    "dzig:-70:69": (0, 1523),
}


def _counted_build(pres, monkeypatch):
    """build_algebra(pres), recording the tip pairs passed to
    _overlaps and the polynomials passed to reduce."""
    pairs, reduced = [], []
    overlaps, reduce = _Rewriter._overlaps, _Rewriter.reduce

    def counted_overlaps(self, t1, t2):
        pairs.append((t1, t2))
        return overlaps(self, t1, t2)

    def counted_reduce(self, poly, bound):
        reduced.append(poly)
        return reduce(self, poly, bound)

    with monkeypatch.context() as mp:
        mp.setattr(_Rewriter, "_overlaps", counted_overlaps)
        mp.setattr(_Rewriter, "reduce", counted_reduce)
        alg = build_algebra(pres)
    return alg, pairs, reduced


@pytest.mark.parametrize("field_name", FIELDS)
@pytest.mark.parametrize("name", DECK_BUILDS)
def test_deck_windows_build_with_the_pinned_work(name, field_name, monkeypatch):
    pres = _example_presentations([name], field_from_name(field_name))[0]
    alg, pairs, reduced = _counted_build(pres, monkeypatch)
    assert (len(pairs), len(reduced)) == DECK_WORK[name]
    rw = _PoppedRewriter(pres)
    rw.complete(2 * pres.degree_bound)
    # no pair of monomial rules reaches _overlaps; the ladders' rules are all
    # monomial, qsl2's commutation rules are not
    assert all(rw.rules[t1] or rw.rules[t2] for t1, t2 in pairs)
    assert bool(pairs) == any(rw.rules.values())
    # completion reduces what it pops, none of it a single normal word; the
    # table then reduces exactly the products that are not normal words
    normal = {b.word for b in alg.basis}
    popped, table = reduced[: len(rw.popped)], reduced[len(rw.popped) :]
    assert popped == rw.popped
    assert not any(len(poly) == 1 and next(iter(poly)) in normal for poly in popped)
    products = [
        bk.word + bl.word for bk in alg.basis for bl in alg.basis if bk.src == bl.tgt and bk.word + bl.word
    ]
    assert table == [{w: pres.field.one} for w in products if w not in normal]
