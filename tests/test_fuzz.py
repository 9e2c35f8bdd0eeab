"""Seeded randomized consistency checks on small random quiver algebras:
the bounded completion against the free-path dimension oracle, duality
and decomposition bookkeeping, and the opposite-algebra symmetry of the
stratified verdict."""

import random

import pytest

from oracles import check_map, ext1_dim, ext1_oracle, path_count_dimension_oracle

from qstrat import rep as R
from qstrat import strat as S
from qstrat.algebra import (
    Arrow,
    NotFiniteDimensionalWithinBound,
    QuiverPresentation,
    build_algebra,
)
from qstrat.exactla import QQ, field_from_name


def random_monomial_algebra(seed, max_vertices=3, max_arrows=3, bound=5, field=QQ):
    rng = random.Random(seed)
    nv = rng.randint(1, max_vertices)
    vertices = [str(i) for i in range(nv)]
    arrows = []
    for t in range(rng.randint(1, max_arrows)):
        arrows.append(Arrow(f"a{t}", rng.choice(vertices), rng.choice(vertices)))
    # random composable monomial relations of length two or three
    relations = []
    by_src = {}
    for a in arrows:
        by_src.setdefault(a.src, []).append(a)
    for _ in range(rng.randint(1, 4)):
        first = rng.choice(arrows)
        path = [first]
        for _ in range(rng.randint(1, 2)):
            nxt = [a for a in arrows if a.src == path[-1].tgt]
            if not nxt:
                break
            path.append(rng.choice(nxt))
        if len(path) >= 2:
            word = tuple(a.name for a in reversed(path))
            relations.append([(field.one, word)])
    # always kill every length-`bound-1` free path by cutting loops: add
    # square-zero relations on all loops to keep things finite most runs
    for a in arrows:
        if a.src == a.tgt:
            relations.append([(field.one, (a.name, a.name))])
    pres = QuiverPresentation(
        field=field, vertices=vertices, arrows=arrows, relations=relations, degree_bound=bound
    )
    return pres


def cut_at_bound(pres):
    """The presentation with every composable path of length bound-1 added
    as a monomial relation, so that no normal word reaches the bound."""
    arrow_src = {a.name: a.src for a in pres.arrows}
    paths = [(a.name,) for a in pres.arrows]
    for _ in range(pres.degree_bound - 2):
        # the appended arrow is applied first: its target is the source so far
        paths = [w + (a.name,) for w in paths for a in pres.arrows if a.tgt == arrow_src[w[-1]]]
    return QuiverPresentation(
        field=pres.field,
        vertices=pres.vertices,
        arrows=pres.arrows,
        relations=pres.relations + [[(pres.field.one, w)] for w in paths],
        degree_bound=pres.degree_bound,
    )


def build_finite(pres):
    """(presentation, algebra): the draw itself when its quotient is finite
    within the bound, else the draw cut at the bound, whose dimension the
    free-path oracle confirms.  A draw that builds is left as it is."""
    try:
        return pres, build_algebra(pres)
    except NotFiniteDimensionalWithinBound:
        pres = cut_at_bound(pres)
        alg = build_algebra(pres)
        assert alg.dim == path_count_dimension_oracle(pres, pres.degree_bound - 1)
        return pres, alg


@pytest.mark.parametrize("seed", range(16))
def test_dimension_matches_free_path_oracle(seed):
    pres, alg = build_finite(random_monomial_algebra(seed))
    assert alg.verify()
    assert alg.dim == path_count_dimension_oracle(pres, pres.degree_bound - 1)


@pytest.mark.parametrize("seed", range(10))
def test_basic_split_and_regular_decomposition(seed):
    _, alg = build_finite(random_monomial_algebra(100 + seed))
    rad = alg.radical_basis()
    assert alg.dim - len(rad) == len(alg.vertices)
    reg = R.free_module(alg, dict.fromkeys(alg.vertices, 1))
    parts = R.decompose(reg)
    assert sum(p.total_dim() for p in parts) == alg.dim


@pytest.mark.parametrize("seed", range(10))
def test_duality_and_hom_bookkeeping(seed):
    _, alg = build_finite(random_monomial_algebra(200 + seed))
    rng = random.Random(seed)
    verts = list(alg.vertices)
    m = R.projective(alg, rng.choice(verts))
    n = R.injective(alg, rng.choice(verts))
    homs = R.hom_space(m, n)
    for phi in homs[:3]:
        check_map(phi)
        K, _ = R.kernel_sub(phi)
        img, _ = R.image_sub(phi)
        assert K.total_dim() + img.total_dim() == m.total_dim()
    # duality is dimension preserving and an involution
    assert R.hom_dim(m, n) == R.hom_dim(R.dual(n), R.dual(m))
    dd = R.dual(R.dual(m))
    assert dd.algebra is alg and R.isomorphism(dd, m) is not None


@pytest.mark.parametrize("seed", range(8))
def test_ext_oracle_on_random_simples(seed):
    _, alg = build_finite(random_monomial_algebra(300 + seed))
    L = R.simples(alg)
    for a in alg.vertices:
        for b in alg.vertices:
            assert ext1_dim(L[a], L[b]) == ext1_oracle(L[a], L[b])


@pytest.mark.parametrize("seed", range(8))
def test_opposite_symmetry_of_stratified_verdict(seed):
    _, alg = build_finite(random_monomial_algebra(400 + seed, max_vertices=2))
    rng = random.Random(seed)
    verts = sorted(alg.vertices)
    if len(verts) == 1:
        covers = []
    else:
        covers = [(verts[0], verts[1])] if rng.random() < 0.5 else [(verts[1], verts[0])]
    poset = S.Poset(verts, covers)
    signs = {v: rng.choice("+-") for v in verts}
    spec = S.StratSpec(poset, {v: v for v in verts}, signs)
    lhs = S.check_stratified(alg, spec, with_ext=False).ok
    rhs = S.check_stratified(alg.opposite(), spec.negated(), with_ext=False).ok
    assert lhs == rhs


def _build_or_none(pres):
    try:
        return build_algebra(pres)
    except NotFiniteDimensionalWithinBound:
        return None


@pytest.mark.parametrize("seed", range(24))
def test_rationals_and_large_prime_agree(seed):
    """Over Q and over F_p with p = 1000003 the same presentation is finite
    within the bound for both or for neither; the two algebras (cut at the
    bound when neither is finite) have the same dimension, radical
    dimension and stratified verdict.  Every seed runs; none skips."""
    fp = field_from_name("Fp:1000003")
    alg_q = _build_or_none(random_monomial_algebra(500 + seed))
    alg_p = _build_or_none(random_monomial_algebra(500 + seed, field=fp))
    assert (alg_q is None) == (alg_p is None)
    if alg_q is None:
        _, alg_q = build_finite(random_monomial_algebra(500 + seed))
        _, alg_p = build_finite(random_monomial_algebra(500 + seed, field=fp))
    assert alg_q.dim == alg_p.dim
    assert len(alg_q.radical_basis()) == len(alg_p.radical_basis())
    rng = random.Random(seed)
    verts = sorted(alg_q.vertices)
    rng.shuffle(verts)
    poset = S.Poset(verts, list(zip(verts, verts[1:])))
    spec = S.StratSpec(poset, {v: v for v in verts}, {v: rng.choice("+-") for v in verts})
    verdict_q = S.check_stratified(alg_q, spec, with_ext=False).ok
    verdict_p = S.check_stratified(alg_p, spec, with_ext=False).ok
    assert verdict_q == verdict_p
