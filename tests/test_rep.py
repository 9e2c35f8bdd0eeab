import random
from fractions import Fraction

import pytest

from oracles import (
    basis_element,
    check_map,
    check_valid,
    combination,
    costandardize,
    dual_numbers,
    ext1_dim,
    ext1_oracle,
    find_retraction,
    head,
    krull_schmidt_isomorphism,
    radical_sub,
    reference_decompose,
    reference_semisimple_min_poly,
    reference_direct_sum,
    reference_extension_middle,
    reference_is_indecomposable,
    reference_split_completely,
    reference_split_leaves,
    socle,
    socle_sub,
    standardize,
    zero_map,
)

from qstrat import rep as R
from qstrat.based import extract_cellular
from qstrat.examples import get_example
from qstrat.exactla import Matrix, field_from_name, span_pivots, span_rref, vector_in_span


@pytest.fixture(scope="module")
def B():
    return get_example("B")[0]


@pytest.fixture(scope="module")
def A():
    return get_example("A")[0]


class TestProjectiveInjective:
    def test_projective_dims(self, B):
        assert R.projective(B, "1").dims == {"1": 2, "2": 2}
        assert R.projective(B, "2").dims == {"1": 0, "2": 2}

    def test_injective_dims(self, B):
        assert R.injective(B, "1").dims == {"1": 2, "2": 0}
        assert R.injective(B, "2").dims == {"1": 2, "2": 2}

    def test_modules_valid(self, B, A):
        for alg in (B, A):
            for v in alg.vertices:
                check_valid(R.projective(alg, v))
                check_valid(R.injective(alg, v))

    def test_semisimple_projectives_are_simple(self):
        K, _ = get_example("kxk")
        for v in K.vertices:
            assert R.projective(K, v).total_dim() == 1

    def test_regular_module_dimension(self, A):
        assert R.free_module(A, dict.fromkeys(A.vertices, 1)).total_dim() == A.dim


class TestHom:
    def test_hom_between_projectives_is_corner(self, B):
        # Hom(A e_i, A e_j) has the dimension of e_i A e_j
        P1, P2 = R.projective(B, "1"), R.projective(B, "2")
        assert R.hom_dim(P1, P1) == 2
        assert R.hom_dim(P2, P1) == 2
        assert R.hom_dim(P1, P2) == 0
        assert R.hom_dim(P2, P2) == 2

    def test_schur(self, B):
        L = R.simples(B)
        assert R.hom_dim(L["1"], L["1"]) == 1
        assert R.hom_dim(L["1"], L["2"]) == 0

    def test_yoneda(self, B):
        # dim Hom(A e_i, m) = dim of m at the vertex i
        for m in (R.projective(B, "1"), R.injective(B, "2"), R.simples(B)["2"]):
            for v in B.vertices:
                assert R.hom_dim(R.projective(B, v), m) == m.dims[v]

    def test_maps_are_homomorphisms(self, B):
        P1 = R.projective(B, "1")
        I2 = R.injective(B, "2")
        for phi in R.hom_space(P1, I2):
            check_map(phi)


class TestDuality:
    def test_involution(self, B):
        P1 = R.projective(B, "1")
        dd = R.dual(R.dual(P1))
        assert dd.algebra is B
        assert R.isomorphism(dd, P1) is not None

    def test_hom_dims_match_opposite(self, B):
        P1 = R.projective(B, "1")
        I2 = R.injective(B, "2")
        assert R.hom_dim(P1, I2) == R.hom_dim(R.dual(I2), R.dual(P1))

    @pytest.mark.parametrize("n", [0, 1])
    def test_ext_transfer_to_opposite(self, B, n):
        L = R.simples(B)
        for a in ("1", "2"):
            for b in ("1", "2"):
                lhs = R.ext_dims(R.Resolution(L[a], n + 1), L[b], n)[n]
                dual = R.dual(L[b])
                rhs = R.ext_dims(R.Resolution(dual, n + 1), R.dual(L[a]), n)[n]
                assert lhs == rhs


class TestRadicalSocle:
    def test_head_of_projective(self, B):
        h, _ = head(R.projective(B, "1"))
        assert {v: d for v, d in h.dims.items() if d} == {"1": 1}

    def test_socle_of_injective(self, B):
        s = socle(R.injective(B, "2"))
        assert {v: d for v, d in s.dims.items() if d} == {"2": 1}

    @pytest.mark.parametrize("field", ["Q", "Fp:1000003"])
    @pytest.mark.parametrize("name", ["A", "B", "semiinf:3", "qsl2:3"])
    def test_socle_matches_per_vertex_reference(self, name, field):
        # the earlier socle_sub acted by the radical once per vertex; one
        # pass must give the same rows, so the same kernels and inclusion
        alg, _ = get_example(name, field_from_name(field))
        f = alg.field
        for M in [R.projective(alg, b) for b in alg.vertices] + [R.injective(alg, b) for b in alg.vertices]:
            want = {}
            for v in alg.vertices:
                rows = [
                    row
                    for r in alg.radical_basis()
                    for (_tv, sv), mat in M.act_element(r).items()
                    if sv == v
                    for row in mat.rows
                ]
                want[v] = Matrix(f, rows, M.dims[v]).kernel() if rows else Matrix.identity(f, M.dims[v])
            _, incl = socle_sub(M)
            assert incl.mats == {v: want[v].column_space_basis() for v in alg.vertices}

    def test_radical_of_semisimple_module(self):
        K, _ = get_example("kxk")
        reg = R.free_module(K, dict.fromkeys(K.vertices, 1))
        assert radical_sub(reg)[0].total_dim() == 0

    def test_not_split_detection(self):
        # Q[x]/(x^2 + 1) is a field extension: builds fine, but the simples
        # are not absolutely simple over Q
        from qstrat.algebra import Arrow, QuiverPresentation, build_algebra
        from qstrat.exactla import QQ

        pres = QuiverPresentation(
            field=QQ,
            vertices=["1"],
            arrows=[Arrow("x", "1", "1")],
            relations=[[(QQ.one, ("x", "x")), (QQ.one, ())]],
            degree_bound=4,
        )
        alg = build_algebra(pres)
        assert alg.dim == 2
        with pytest.raises(R.NotSplit):
            R.simples(alg)

    def test_split_after_field_extension_analog(self):
        # the same relation over F_5 (where -1 is a square) splits
        from qstrat.algebra import Arrow, QuiverPresentation, build_algebra
        from qstrat.exactla import PrimeField

        f5 = PrimeField(5)
        pres = QuiverPresentation(
            field=f5,
            vertices=["1"],
            arrows=[Arrow("x", "1", "1")],
            relations=[[(f5.one, ("x", "x")), (f5.one, ())]],
            degree_bound=4,
        )
        alg = build_algebra(pres)
        assert alg.dim == 2
        # radical is computable only for p > dim; 5 > 2 holds
        assert alg.radical_basis() == []

    def test_comp_mults(self, B):
        assert R.projective(B, "1").dim_vector() == {"1": 2, "2": 2}
        L = R.simples(B)
        assert L["1"].dim_vector() == {"1": 1, "2": 0}


class TestSubQuotient:
    def test_sub_and_quotient_dims(self, B):
        P1 = R.projective(B, "1")
        rad, incl = radical_sub(P1)
        assert rad.total_dim() == 3
        quot, proj = R.quotient_rep(P1, {v: incl.mats[v] for v in B.vertices})
        assert quot.total_dim() == 1
        check_valid(rad)
        check_valid(quot)

    def test_span_that_is_not_a_submodule(self, B):
        # P(1) of B has basis e_1, s at vertex 1 and y, y*s at vertex 2;
        # the submodule generated by s is spanned by s and y*s
        P1 = R.projective(B, "1")
        f = B.field
        s_col = Matrix.from_columns(f, [[f.zero, f.one]])
        y_col = Matrix.from_columns(f, [[f.one, f.zero]])
        ys_col = Matrix.from_columns(f, [[f.zero, f.one]])
        for span in ({"1": s_col}, {"1": s_col, "2": y_col}):
            with pytest.raises(R.RepError, match="not action-invariant"):
                R.sub_rep(P1, span)
        sub, incl = R.sub_rep(P1, R.close_spans(P1, {"1": s_col}))
        assert sub.dims == {"1": 1, "2": 1}
        assert incl.mats == {"1": s_col, "2": ys_col}
        check_valid(sub)
        check_map(incl)

    def test_kernel_image(self, B):
        P1 = R.projective(B, "1")
        I1 = R.injective(B, "1")
        homs = R.hom_space(P1, I1)
        phi = next(h for h in homs if not h.is_zero())
        K, _ = R.kernel_sub(phi)
        img, _ = R.image_sub(phi)
        assert K.total_dim() + img.total_dim() == P1.total_dim()


class TestDecompose:
    """decompose returns the summands with repeats; the grouping by
    isomorphism it made before is kept as oracles.reference_decompose."""

    def test_double_projective(self, B):
        P1 = R.projective(B, "1")
        total = R.direct_sum([P1, P1])
        parts = R.decompose(total)
        assert len(parts) == 2 and all(R.isomorphism(p, P1) is not None for p in parts)
        grouped = reference_decompose(total)
        assert len(grouped) == 1
        rep, mult = grouped[0]
        assert mult == 2 and R.isomorphism(rep, P1) is not None

    def test_regular_module_of_A(self, A):
        reg = R.free_module(A, dict.fromkeys(A.vertices, 1))
        parts = R.decompose(reg)
        dims = sorted(p.total_dim() for p in parts)
        assert dims == [4, 10]
        assert all(mult == 1 for _, mult in reference_decompose(reg))
        assert all(R.is_indecomposable(p) for p in parts)

    def test_semisimple_regular(self):
        K, _ = get_example("kxk")
        parts = R.decompose(R.free_module(K, dict.fromkeys(K.vertices, 1)))
        assert sorted(p.total_dim() for p in parts) == [1, 1]

    def test_exhaustive(self, B):
        P1 = R.projective(B, "1")
        I2 = R.injective(B, "2")
        total = R.direct_sum([P1, I2, R.simples(B)["1"]])
        parts = R.decompose(total)
        assert sum(p.total_dim() for p in parts) == total.total_dim()
        assert sum(p.total_dim() * m for p, m in reference_decompose(total)) == total.total_dim()
        for p in parts:
            E, _ = R.endomorphism_algebra([p])
            assert E.dim - len(E.radical_basis()) == 1


class TestRationalEigenvalues:
    """The ground-field roots behind idempotent splitting, from
    exactla.roots (tests/test_roots.py checks it against sympy)."""

    def test_split_cubic_over_Q(self):
        f = field_from_name("Q")
        # (x - 1)(x + 2)(2x - 1)
        roots = R.roots([f.of(c) for c in (2, 1, -5, 2)], f)
        assert sorted(roots) == [-2, Fraction(1, 2), 1]
        assert all(isinstance(r, (Fraction, int)) for r in roots)

    @pytest.mark.parametrize("name", ["Q", "Fp:3"])
    def test_x_squared_plus_one_does_not_split(self, name):
        f = field_from_name(name)
        with pytest.raises(R.NotSplit):
            R.roots([f.one, f.zero, f.one], f)

    def test_x_squared_plus_one_splits_over_F5(self):
        f = field_from_name("Fp:5")
        assert sorted(R.roots([f.one, f.zero, f.one], f)) == [2, 3]


class TestExt:
    def test_semisimple_ext_vanishes(self):
        K, _ = get_example("kxk")
        L = R.simples(K)
        assert ext1_dim(L["1"], L["2"]) == 0
        assert ext1_dim(L["1"], L["1"]) == 0

    def test_standard_pair_vanishing(self, B):
        # no extensions of the lower standard by the higher one
        P2 = R.projective(B, "2")
        P1 = R.projective(B, "1")
        assert ext1_dim(P1, P2) == 0

    def test_qsl2_adjacent_simples(self):
        Q, _ = get_example("qsl2:3")
        L = R.simples(Q)
        for i in range(3):
            assert ext1_dim(L[str(i)], L[str(i + 1)]) == 1
            assert ext1_dim(L[str(i + 1)], L[str(i)]) == 1
        assert ext1_dim(L["0"], L["2"]) == 0

    def test_against_oracle_on_simples(self, B, A):
        for alg in (B, A):
            L = R.simples(alg)
            for a in alg.vertices:
                for b in alg.vertices:
                    assert ext1_dim(L[a], L[b]) == ext1_oracle(L[a], L[b])

    def test_against_oracle_mixed(self, B):
        L = R.simples(B)
        P1 = R.projective(B, "1")
        I1 = R.injective(B, "1")
        pairs = [(P1, L["2"]), (I1, L["1"]), (L["1"], I1), (I1, P1)]
        for m, n in pairs:
            assert m.total_dim() * n.total_dim() <= 24
            assert ext1_dim(m, n) == ext1_oracle(m, n)

    def test_extension_middle_nonsplit(self, B):
        L = R.simples(B)
        d, cocycles, ctx = R.ext1_with_cocycles(L["1"], L["2"], R.syzygy(L["1"]))
        assert d == 1
        E, split = R.extension_middle(L["1"], L["2"], cocycles[0], ctx)
        assert not split
        assert E.total_dim() == 2
        check_valid(E)
        # the maps of the extension, which the reference still builds
        E_ref, incl, proj, split_ref = reference_extension_middle(L["1"], L["2"], cocycles[0], ctx)
        assert (E_ref.dims, E_ref.act, split_ref) == (E.dims, E.act, split)
        assert incl.rank() == incl.source.total_dim() and proj.is_surjective()

    def test_extension_middle_zero_class(self, B):
        L = R.simples(B)
        _, _, ctx = R.ext1_with_cocycles(L["1"], L["2"], R.syzygy(L["1"]))
        with pytest.raises(R.ZeroClass):
            R.extension_middle(L["1"], L["2"], zero_map(ctx[0], L["2"]), ctx)

    def test_retraction_and_section_detect_splitting(self, B):
        L = R.simples(B)
        _, cocycles, ctx = R.ext1_with_cocycles(L["1"], L["2"], R.syzygy(L["1"]))
        E, split = R.extension_middle(L["1"], L["2"], cocycles[0], ctx)
        E_ref, incl, proj, split_ref = reference_extension_middle(L["1"], L["2"], cocycles[0], ctx)
        assert (E_ref.dims, E_ref.act, split_ref) == (E.dims, E.act, split)
        assert not split
        assert find_retraction(incl) is None
        pool = R.hom_space(proj.target, proj.source)
        assert R.lift(pool, proj.compose, [R.identity_map(proj.target)], R.hom_space(proj.target, proj.target)) is None
        total, incls, projs = reference_direct_sum([L["1"], L["2"]])
        r = find_retraction(incls[0])
        pool = R.hom_space(L["2"], total)
        s = R.lift(pool, projs[1].compose, [R.identity_map(L["2"])], R.hom_space(L["2"], L["2"]))
        assert r is not None and r.compose(incls[0]) == R.identity_map(L["1"])
        assert s is not None and projs[1].compose(combination(pool, s[0], L["2"], total)) == R.identity_map(L["2"])


class TestResolutions:
    def test_projective_resolves_in_zero_steps(self, B):
        res = R.Resolution(R.projective(B, "1"), 4)
        assert res.terminated and len(res.terms) == 1

    def test_simple_two_periodic(self, B):
        # the simple at the loop vertex has a periodic resolution
        res = R.Resolution(R.simples(B)["2"], 6)
        assert not res.terminated
        dims = [K.dim_vector() for K in res.syzygies]
        assert dims[-1] == dims[-2]  # the syzygies repeat with period 1

    def test_ext_higher_orthogonality(self, B):
        # Ext^n(standard, signed costandard) vanishing for B at (+,-):
        # here checked directly on the modules
        P2 = R.projective(B, "2")  # the standard at the lower weight
        I1 = R.injective(B, "1")
        dims = R.ext_dims(R.Resolution(P2, 5), I1, 4)
        assert dims == [0, 0, 0, 0, 0]

    def test_ext0_is_hom(self, B):
        P1 = R.projective(B, "1")
        I2 = R.injective(B, "2")
        assert R.ext_dims(R.Resolution(P1, 3), I2, 2)[0] == R.hom_dim(P1, I2)


class TestEndomorphismAlgebras:
    def test_end_of_simple(self, B):
        L = R.simples(B)
        alg, _ = R.endomorphism_algebra([L["1"]], names=["1"])
        assert alg.dim == 1

    def test_end_of_all_simples(self, B):
        L = R.simples(B)
        alg, _ = R.endomorphism_algebra([L["1"], L["2"]], names=["1", "2"])
        assert alg.dim == 2
        assert alg.is_semisimple()

    def test_end_opposite_composition_order(self, B):
        # e_i A e_j is Hom(T_i, T_j); multiplication composes left to right
        P1, P2 = R.projective(B, "1"), R.projective(B, "2")
        alg, hom_bases = R.endomorphism_algebra([P1, P2], names=["1", "2"])
        assert alg.dim == 6
        assert alg.graded_dims()[("2", "1")] == 2
        alg.verify()

    def test_dual_numbers_end(self):
        D, _ = dual_numbers()
        P = R.projective(D, "1")
        alg, _ = R.endomorphism_algebra([P], names=["1"])
        assert alg.dim == 2
        assert len(alg.radical_basis()) == 1


# -- the batched Hom-coordinate and lift solves ------------------------------


def _coords_one_at_a_time(phi, basis):
    """Reference: the coordinates of one map, from its own solve."""
    f = phi.source.algebra.field
    target = R._flatten_map(phi)
    if not basis:
        if all(f.is_zero(x) for x in target):
            return []
        raise R.RepError("nonzero map in zero Hom space")
    A = Matrix.from_columns(f, [R._flatten_map(b) for b in basis], nrows=len(target))
    sol = A.solve(Matrix.from_columns(f, [target], nrows=len(target)))
    if sol is None:
        raise R.RepError("map not in span of Hom basis")
    return sol.column(0)


def _lift_one_at_a_time(pool, compose, t):
    """Reference: the coordinates over the pool of one x with compose(x) ==
    t, or None."""
    f = t.source.algebra.field
    space = R.hom_space(t.source, t.target)
    rows = [_coords_one_at_a_time(compose(phi), space) for phi in pool]
    A = Matrix(f, rows, len(space)).transpose()
    tgt = _coords_one_at_a_time(t, space)
    sol = A.solve(Matrix.from_columns(f, [tgt], nrows=len(space)))
    return None if sol is None else sol.column(0)


@pytest.mark.parametrize("field_name", ["Q", "Fp:1000003"])
@pytest.mark.parametrize(
    "name, flavors", [("B", ("auto",)), ("semiinf:3", ("auto", "BS")), ("qsl2:3", ("auto", "BS"))]
)
def test_batched_solves_match_one_target_reference(name, flavors, field_name, monkeypatch):
    """Every lift extract_cellular asks for (the Y-, X- and H-legs) is
    given the targets' own hom_space and equals the one-target solve over
    the same pool, and as maps the one-target solve over the Hom basis of
    the maps' own hom_space; hom_coords equals the one-map solve on each
    lift's pool and targets."""
    checked = []
    real_lift = R.lift

    def checking(pool, compose, targets, space):
        got = real_lift(pool, compose, targets, space)
        checked.append(len(targets))
        if not targets:
            assert got == []
            return got
        assert space == R.hom_space(targets[0].source, targets[0].target)
        want = [_lift_one_at_a_time(pool, compose, t) for t in targets]
        assert got == (None if None in want else want)
        source, target = pool[0].source, pool[0].target
        plain = R.hom_space(source, target)
        old = [_lift_one_at_a_time(plain, compose, t) for t in targets]
        assert None not in old
        assert [combination(pool, c, source, target) for c in got] == [
            combination(plain, c, source, target) for c in old
        ]
        maps = [compose(phi) for phi in pool] + list(targets)
        assert R.hom_coords(maps, space) == [_coords_one_at_a_time(m, space) for m in maps]
        return got

    monkeypatch.setattr(R, "lift", checking)
    algebra, spec = get_example(name, field_from_name(field_name))
    for flavor in flavors:
        extract_cellular(algebra, spec, flavor=flavor)
    assert checked and (name != "B" or max(checked) > 1)


def _close_spans_reference(rep, spans):
    """Reference: the worklist closure that close_spans replaced, one
    elimination per image vector."""
    alg = rep.algebra
    f = alg.field
    cur = {}
    for v in alg.vertices:
        sp = spans.get(v)
        cur[v] = [sp.column(j) for j in range(sp.ncols)] if sp is not None else []
    changed = True
    while changed:
        changed = False
        for k, mat in rep.act.items():
            b = alg.basis[k]
            if not cur[b.src]:
                continue
            tgt_span = span_rref(f, cur[b.tgt], rep.dims[b.tgt])
            for col in list(cur[b.src]):
                img = mat.apply(col)
                if any(not f.is_zero(x) for x in img) and not vector_in_span(tgt_span, img):
                    cur[b.tgt].append(img)
                    tgt_span = span_rref(f, cur[b.tgt], rep.dims[b.tgt])
                    changed = True
    out = {}
    for v in alg.vertices:
        rows = span_rref(f, cur[v], rep.dims[v])
        out[v] = Matrix.from_columns(f, [list(r) for r in rows.rows], nrows=rep.dims[v])
    return out


@pytest.mark.parametrize("field_name", ["Q", "Fp:1000003"])
@pytest.mark.parametrize("name", ["A", "B", "kxk", "point", "semiinf:3", "qsl2:3", "gl11:-1:2", "dzig:-1:2"])
def test_close_spans_matches_worklist_reference(name, field_name):
    """The one-pass closure returns the reference's canonical basis on
    random spans (single vectors, a few vectors at several vertices, and
    empty spans) in the projectives, injectives and regular module."""
    f = field_from_name(field_name)
    alg, _ = get_example(name, f)
    rng = random.Random(name)
    modules = [R.free_module(alg, dict.fromkeys(alg.vertices, 1))] + [R.projective(alg, v) for v in alg.vertices]
    modules += [R.injective(alg, v) for v in alg.vertices]
    for m in modules:
        for trial in range(6):
            spans = {}
            for v in rng.sample(sorted(alg.vertices), rng.randint(0, min(2, len(alg.vertices)))):
                cols = [[f.of(rng.randint(-2, 2)) for _ in range(m.dims[v])] for _ in range(rng.randint(0, 2))]
                spans[v] = Matrix.from_columns(f, cols, nrows=m.dims[v])
            assert R.close_spans(m, spans) == _close_spans_reference(m, spans)


def _quotient_rep_reference(rep, spans):
    """Reference: quotient_rep as it was, multiplying each action by the
    matrix that selects the free coordinates."""
    alg = rep.algebra
    f = alg.field
    proj = {}
    frees = {}
    for v in alg.vertices:
        d = rep.dims[v]
        sp = spans.get(v, Matrix.zero(f, d, 0))
        row_basis = span_rref(f, sp.columns(), d)
        pivots = span_pivots(row_basis)
        free = [j for j in range(d) if j not in pivots]
        frees[v] = free
        # quotient coordinates of the j-th unit vector: a free one is its
        # own coordinate, a pivot one is minus the free part of its row
        pivot_row = dict(zip(pivots, row_basis.rows))
        rows_out = []
        for j in range(d):
            row = pivot_row.get(j)
            if row is None:
                rows_out.append([f.one if fj == j else f.zero for fj in free])
            else:
                rows_out.append([f.neg(row[fj]) for fj in free])
        proj[v] = Matrix(f, rows_out, len(free)).transpose() if d else Matrix.zero(f, len(free), 0)
    dims = {v: len(frees[v]) for v in alg.vertices}
    act = {}
    for k, mat in rep.act.items():
        b = alg.basis[k]
        if dims[b.src] == 0 or dims[b.tgt] == 0:
            continue
        lift_cols = []
        for fj in frees[b.src]:
            lift_cols.append([f.one if i == fj else f.zero for i in range(rep.dims[b.src])])
        lifted = Matrix.from_columns(f, lift_cols, nrows=rep.dims[b.src])
        q = proj[b.tgt] * (mat * lifted)
        if not q.is_zero():
            act[k] = q
    quot = R.Rep(alg, dims, act)
    return quot, R.RepMap(rep, quot, proj)


def _entry_types(mats):
    return {k: [[type(x) for x in r] for r in m.rows] for k, m in mats.items()}


@pytest.mark.parametrize("field_name", ["Q", "Fp:1000003"])
@pytest.mark.parametrize("name", ["A", "B", "kxk", "point", "semiinf:3", "qsl2:3", "gl11:-1:2", "dzig:-1:2"])
def test_quotient_rep_matches_selection_reference(name, field_name):
    """quotient_rep reads the free columns of each action off directly and
    builds the reference's quotient and projection, entry for entry, for
    the radical, the socle and random closed spans of every projective."""
    f = field_from_name(field_name)
    alg, _ = get_example(name, f)
    rng = random.Random(name)
    for v in alg.vertices:
        P = R.projective(alg, v)
        subs = [radical_sub(P)[1].mats, socle_sub(P)[1].mats, {}]
        for _ in range(4):
            u = rng.choice(sorted(alg.vertices))
            cols = [[f.of(rng.randint(-2, 2)) for _ in range(P.dims[u])] for _ in range(rng.randint(1, 2))]
            subs.append(R.close_spans(P, {u: Matrix.from_columns(f, cols, nrows=P.dims[u])}))
        for spans in subs:
            (quot, proj), (ref, ref_proj) = R.quotient_rep(P, spans), _quotient_rep_reference(P, spans)
            assert (quot.dims, quot.act, proj.mats) == (ref.dims, ref.act, ref_proj.mats)
            assert _entry_types(quot.act) == _entry_types(ref.act)


def _end_mult_one_product_at_a_time(parts, hom_bases):
    """Reference: End(sum of parts)^op's table with one coordinate solve per
    composite, as endomorphism_algebra built it before it batched them."""
    index, mult = {}, {}
    for i in range(len(parts)):
        for j in range(len(parts)):
            for t in range(len(hom_bases[(i, j)])):
                index[(i, j, t)] = len(index)
    for (i, j, t), k in index.items():
        for l in range(len(parts)):
            for u, y in enumerate(hom_bases[(j, l)]):
                comp = y.compose(hom_bases[(i, j)][t])
                if comp.is_zero():
                    continue
                coords = _coords_one_at_a_time(comp, hom_bases[(i, l)])
                entries = tuple((index[(i, l, s)], c) for s, c in enumerate(coords) if c != 0)
                if entries:
                    mult[(k, index[(j, l, u)])] = entries
    return mult


@pytest.mark.parametrize("field_name", ["Q", "Fp:1000003"])
@pytest.mark.parametrize("name", ["B", "semiinf:3", "qsl2:3", "dzig:-1:2"])
def test_end_algebra_batched_coordinates_match_one_solve_per_product(name, field_name):
    alg, _ = get_example(name, field_from_name(field_name))
    parts = [R.projective(alg, v) for v in alg.vertices] + [R.injective(alg, v) for v in alg.vertices]
    end, hom_bases = R.endomorphism_algebra(parts)
    assert end.mult == _end_mult_one_product_at_a_time(parts, hom_bases)


# -- decompose on the one End construction -----------------------------------


def _plain_end_reference(rep):
    """Reference: End(rep) with plain composition order on one vertex, as
    decompose built it before it used endomorphism_algebra.  Returns
    (algebra, list of RepMaps in basis order)."""
    from qstrat.algebra import Algebra, BasisElement

    f = rep.algebra.field
    ordered = R._basis_with_first(R.identity_map(rep), R.hom_space(rep, rep))
    belems = [BasisElement(f"f{t}", "1", "1", None) for t in range(len(ordered))]
    mult = {}
    for a, x in enumerate(ordered):
        for b, y in enumerate(ordered):
            comp = x.compose(y)
            if comp.is_zero():
                continue
            coords = R.hom_coords([comp], ordered)[0]
            entries = tuple((s, c) for s, c in enumerate(coords) if not f.is_zero(c))
            if entries:
                mult[(a, b)] = entries
    return Algebra(f, ["1"], belems, {"1": 0}, mult, generators=tuple(range(len(ordered)))), ordered


def _plain_end_as_endomorphism_algebra(parts, names=None):
    (rep,) = parts
    E, ordered = _plain_end_reference(rep)
    return E, {(0, 0): ordered}


def _pieces(parts):
    return [(p.dim_vector(), {k: m.rows for k, m in sorted(p.act.items())}) for p in parts]


@pytest.mark.parametrize("field_name", ["Q", "Fp:1000003"])
@pytest.mark.parametrize("name", ["A", "B", "semiinf:3", "qsl2:3", "gl11:-1:2"])
def test_decompose_matches_plain_end_reference(name, field_name, monkeypatch):
    """Eigenvalues read on the module are those read in End/rad, so
    decompose gives the pieces, in order, of the split through End^op's
    radical (reference_split_leaves), and End^op has the same powers and
    the same radical as End, so the split through the plain End
    construction gives them too: on the projectives, injectives and tilting
    modules and on the direct sum of each family."""
    from qstrat import tilting as TL

    algebra, spec = get_example(name, field_from_name(field_name))
    families = [
        [R.projective(algebra, v) for v in sorted(algebra.vertices)],
        [R.injective(algebra, v) for v in sorted(algebra.vertices)],
        TL.tilting_set(algebra, spec).parts()[1],
    ]
    # each module alone, and each family's direct sum, which has to split
    modules = [M for fam in families for M in fam] + [R.direct_sum(fam) for fam in families]
    got = [_pieces(R.decompose(M)) for M in modules]
    assert got == [_pieces(reference_split_leaves(M)) for M in modules]
    with monkeypatch.context() as m:
        m.setattr(R, "endomorphism_algebra", _plain_end_as_endomorphism_algebra)
        assert got == [_pieces(reference_split_leaves(M)) for M in modules]
    for M in modules:
        E, _ = R.endomorphism_algebra([M])
        E_plain, _ = _plain_end_reference(M)
        assert E.dim - len(E.radical_basis()) == E_plain.dim - len(E_plain.radical_basis())


@pytest.mark.parametrize("field_name", ["Fp:2", "Fp:3", "Fp:5", "Fp:7", "Fp:11"])
@pytest.mark.parametrize("name", ["A", "B", "semiinf:3", "qsl2:3"])
def test_small_characteristic_splits_into_the_rational_summands(name, field_name):
    """Over primes at or below dim End, where End^op's trace-form radical
    is refused, the sum of the projectives and injectives splits into
    summands with the dimension vectors, in order, of its summands over Q,
    each certified indecomposable."""

    def summands(field):
        alg, _ = get_example(name, field_from_name(field))
        labels = sorted(alg.vertices)
        return R.decompose(R.direct_sum([R.projective(alg, v) for v in labels] + [R.injective(alg, v) for v in labels]))

    parts = summands(field_name)
    assert [p.dim_vector() for p in parts] == [p.dim_vector() for p in summands("Q")]
    assert all(R.is_indecomposable(p) for p in parts)



@pytest.mark.parametrize("field_name", ["Q", "Fp:1000003", "Fp:2", "Fp:3", "Fp:5", "Fp:7", "Fp:11"])
def test_decompose_solves_end_once_per_piece(field_name, monkeypatch):
    """One End(M) basis per node of the split tree serves both the trace
    form and the search, in every characteristic: the sum of A's
    projectives and injectives splits into 4 summands, the pieces of the
    reference split in order, with 7 Hom solves, each an End."""
    alg, _ = get_example("A", field_from_name(field_name))
    labels = sorted(alg.vertices)
    M = R.direct_sum([R.projective(alg, v) for v in labels] + [R.injective(alg, v) for v in labels])
    solved = []
    real = R.hom_space

    def counted(m, n):
        solved.append(m is n)
        return real(m, n)

    with monkeypatch.context() as mp:
        mp.setattr(R, "hom_space", counted)
        parts = R.decompose(M)
    assert solved == [True] * 7 and len(parts) == 4
    assert _pieces(parts) == _pieces(reference_split_leaves(M))


@pytest.mark.parametrize("field_name", ["Q", "Fp:1000003", "Fp:2", "Fp:3", "Fp:5", "Fp:7"])
@pytest.mark.parametrize("name", ["A", "B", "semiinf:3", "qsl2:3", "gl11:-1:2"])
def test_sums_of_copies_split_without_notsplit(name, field_name):
    """End(N + N)/rad is M_2(k), which holds maps such as [[0, -1], [1, 0]]
    whose minimal polynomial has no root in k; the search raises NotSplit
    at the first candidate with such a factor.  On every vertex
    projective, injective and simple N, no candidate does: N + N and
    N + N + N split into copies of N."""
    alg, _ = get_example(name, field_from_name(field_name))
    for v in sorted(alg.vertices):
        for N in (R.projective(alg, v), R.injective(alg, v), R.simple_rep(alg, v)):
            for copies in (2, 3):
                parts = R.decompose(R.direct_sum([N] * copies))
                assert len(parts) == copies and all(R.isomorphism(p, N) is not None for p in parts), (v, copies)

# -- the certified search against the seeded random search it replaced -------

REF_TRIES = 64


def _ref_newton(e, rep, max_iter=40):
    f = rep.algebra.field
    three, two = f.of(3), f.of(2)
    for _ in range(max_iter):
        e2 = e.compose(e)
        if e2 == e:
            return e
        e = e2.scale(three) - e2.compose(e).scale(two)
    return None


def _ref_find_idempotent(rep, E, emaps, rad, rng):
    f = E.field
    rad_rows = [r.dense() for r in rad]
    ident = R.identity_map(rep)
    for attempt in range(REF_TRIES):
        if attempt < E.dim:
            x = basis_element(E, attempt)
        else:
            x = E.element({k: f.of(rng.randint(-3, 3)) for k in range(E.dim)})
        roots = R.roots(reference_semisimple_min_poly(E, rad_rows, x), f)
        if len(roots) < 2:
            continue
        lam, others = roots[0], roots[1:]
        phi = sum((emaps[k].scale(c) for k, c in x.coeffs.items()), zero_map(rep, rep))
        num, denom = ident, f.one
        for mu in others:
            num = num.compose(phi - ident.scale(f.of(mu)))
            denom = f.mul(denom, f.sub(f.of(lam), f.of(mu)))
        e = _ref_newton(num.scale(f.inv(denom)), rep)
        if e is None or e.is_zero() or (e - ident).is_zero():
            continue
        return e
    return None


def _ref_split(rep, rng):
    E, hom_bases = R.endomorphism_algebra([rep])
    rad = E.radical_basis()
    if E.dim - len(rad) == 1:
        return [rep]
    e = _ref_find_idempotent(rep, E, hom_bases[(0, 0)], rad, rng)
    assert e is not None, "reference failed to split in its tries"
    img, _ = R.image_sub(e)
    ker, _ = R.image_sub(R.identity_map(rep) - e)
    return _ref_split(img, rng) + _ref_split(ker, rng)


def _ref_isomorphism(m, n, seed=0):
    """The Hom-basis walk, then seeded random combinations of the basis."""
    if m.dim_vector() != n.dim_vector():
        return None
    if m.total_dim() == 0:
        return R.RepMap(m, n, {})
    basis = R.hom_space(m, n)
    if not basis:
        return None
    for phi in basis:
        if phi.is_isomorphism():
            return phi
    rng = random.Random(seed)
    f = m.algebra.field
    for _ in range(REF_TRIES):
        cand = sum((phi.scale(f.of(rng.randint(-9, 9))) for phi in basis), zero_map(m, n))
        if cand.is_isomorphism():
            return cand
    return None


def _ref_decompose(rep, seed=0):
    out = []
    for p in _ref_split(rep, random.Random(seed)) if not rep.is_zero() else []:
        for i, (q, mult) in enumerate(out):
            if _ref_isomorphism(p, q) is not None:
                out[i] = (q, mult + 1)
                break
        else:
            out.append((p, 1))
    return out


def _shape(parts):
    """Summand dimension vectors with multiplicities, in a fixed order."""
    return sorted((sorted(p.dim_vector().items()), mult) for p, mult in parts)


def _assert_leaves_of_the_reference_split(M):
    """decompose gives the leaves of the split it replaced, in order and
    matrix for matrix; reference_decompose groups those leaves."""
    want = [] if M.is_zero() else reference_split_leaves(M)
    assert _pieces(R.decompose(M)) == _pieces(want)


def _assert_same_verdicts(pairs, search=R.isomorphism):
    """The search (the certified walk by default) and the seeded reference
    agree on every pair; each map found is an isomorphism of modules."""
    found = 0
    for m, n in pairs:
        got, want = search(m, n), _ref_isomorphism(m, n)
        assert (got is None) == (want is None), (m, n)
        if got is not None:
            assert got.source is m and got.target is n
            assert got.is_isomorphism() and check_map(got)
            found += 1
    return found


def _assert_walk_or_refusal(pairs):
    """On each pair, isomorphism finds an isomorphism where the
    Krull-Schmidt reference does, or raises RepError: its None needs an
    indecomposable target, and these targets are sums."""
    refused = 0
    for m, n in pairs:
        want = krull_schmidt_isomorphism(m, n)
        try:
            got = R.isomorphism(m, n)
        except R.RepError:
            refused += 1
            assert m.dim_vector() == n.dim_vector() and not reference_is_indecomposable(n)
            continue
        assert (got is None) == (want is None), (m, n)
    return refused


def _distinct(modules):
    """One module per distinct action: verdicts depend on nothing else."""
    out = {}
    for M in modules:
        acts = tuple((k, tuple(map(tuple, a.rows))) for k, a in sorted(M.act.items()))
        out.setdefault((tuple(sorted(M.dims.items())), acts), M)
    return list(out.values())


def _sign_choices(spec):
    labels = sorted(spec.poset.elements)
    return [
        {lam: "+" for lam in labels},
        {lam: "+-"[i % 2] for i, lam in enumerate(labels)},
        {lam: "-" for lam in labels},
    ]


@pytest.mark.parametrize("field_name", ["Q", "Fp:1000003"])
@pytest.mark.parametrize("name", ["A", "B", "semiinf:3", "qsl2:3", "gl11:-1:2", "dzig:-1:2"])
def test_certified_search_matches_seeded_reference(name, field_name):
    """Equal verdicts on every pair drawn from the projectives, injectives,
    (proper) standards and costandards, and the plus, alternating and minus
    tilting modules, and equal decompositions of each module and of each
    family's direct sum.  The sums, whose pairs the walk alone may not
    decide, get the Krull-Schmidt reference's verdicts.  Modules with equal
    actions are asked once."""
    from qstrat import strat as S
    from qstrat import tilting as TL

    algebra, spec = get_example(name, field_from_name(field_name))
    labels = sorted(algebra.vertices)
    fam = S.standard_family(algebra, spec)
    families = [
        [R.projective(algebra, v) for v in labels],
        [R.injective(algebra, v) for v in labels],
        [fam.standard(v) for v in labels],
        [fam.proper_standard(v) for v in labels],
        [fam.costandard(v) for v in labels],
        [fam.proper_costandard(v) for v in labels],
    ]
    for signs in _sign_choices(spec):
        # unchecked: on A some of these signs fail the tilting flags
        families.append([TL._tilting(algebra, spec.with_signs(signs), b) for b in sorted(algebra.vertices)])
    modules = _distinct(M for family in families for M in family)
    sums = _distinct(R.direct_sum(family) for family in families)
    assert _assert_same_verdicts([(m, n) for m in modules for n in modules]) >= len(modules)
    sum_pairs = [(m, n) for m in sums for n in sums]
    _assert_same_verdicts(sum_pairs, search=krull_schmidt_isomorphism)
    _assert_walk_or_refusal(sum_pairs)
    for M in modules + sums:
        _assert_leaves_of_the_reference_split(M)
        assert _shape(reference_decompose(M)) == _shape(_ref_decompose(M))


@pytest.mark.parametrize("field_name", ["Q", "Fp:1000003"])
def test_standardization_of_a_sum_is_refused_by_the_walk(field_name):
    """Both sides of the additivity check are decomposable and no Hom-basis
    map is an isomorphism: the Krull-Schmidt reference pairs the summands,
    and isomorphism, which cannot certify a None there, raises."""
    from qstrat import strat as S

    B, spec = get_example("B", field_from_name(field_name))
    L = R.simple_rep(S.stratum_algebra(B, spec, "1"), "1")
    LL = R.direct_sum([L, L])
    fam = S.standard_family(B, spec)
    pairs = [
        (standardize(B, spec, "1", LL), R.direct_sum([fam.proper_standard("1")] * 2)),
        (costandardize(B, spec, "1", LL), R.direct_sum([fam.proper_costandard("1")] * 2)),
    ]
    for m, n in pairs:
        assert all(not phi.is_isomorphism() for phi in R.hom_space(m, n))
        with pytest.raises(R.RepError, match="decomposable"):
            R.isomorphism(m, n)
    assert _assert_same_verdicts(pairs, search=krull_schmidt_isomorphism) == 2


@pytest.mark.parametrize("field_name", ["Q", "Fp:1000003"])
def test_walk_none_is_certified_by_an_indecomposable_target(field_name):
    """Over B at signs 1=+, 2=-, P1 + T(2) and the tilting module T(1)
    share a dimension vector and are not isomorphic.  T(1) has neither a
    simple head nor a simple socle, so the walk onto it returns None on
    is_indecomposable's word; the reverse walk, onto the sum, raises."""
    from qstrat import tilting as TL

    B, spec = get_example("B", field_from_name(field_name))
    pm = spec.with_signs({"1": "+", "2": "-"})
    T1, T2 = (TL._tilting(B, pm, b) for b in "12")
    m = R.direct_sum([R.projective(B, "1"), T2])
    assert m.dim_vector() == T1.dim_vector()
    assert sum(R.head_constituents(T1).values()) > 1 and sum(R.socle_constituents(T1).values()) > 1
    assert R.isomorphism(m, T1) is None
    assert krull_schmidt_isomorphism(m, T1) is None and _ref_isomorphism(m, T1) is None
    with pytest.raises(R.RepError, match="decomposable"):
        R.isomorphism(T1, m)


@pytest.mark.parametrize("field_name", ["Q", "Fp:1000003"])
def test_sums_of_non_isomorphic_summands_match_seeded_reference(field_name):
    """P1, I2 and L1 over B: P1 and I2 share a dimension vector and are not
    isomorphic, so the leaves of their sum are grouped by the walk alone,
    and sums of them pair (or fail to pair) under the Krull-Schmidt
    reference; isomorphism finds those pairs or refuses them."""
    B, _ = get_example("B", field_from_name(field_name))
    P1, I2, L1 = R.projective(B, "1"), R.injective(B, "2"), R.simple_rep(B, "1")
    total = R.direct_sum([P1, I2, L1])
    _assert_leaves_of_the_reference_split(total)
    assert _shape(reference_decompose(total)) == _shape(_ref_decompose(total)) == [
        ([("1", 1), ("2", 0)], 1),
        ([("1", 2), ("2", 2)], 1),
        ([("1", 2), ("2", 2)], 1),
    ]
    others = [
        R.direct_sum([L1, I2, P1]),
        R.direct_sum([P1, P1, L1]),
        R.direct_sum([I2, I2, L1]),
    ]
    pairs = [(total, m) for m in others] + [(m, total) for m in others]
    assert _assert_same_verdicts(pairs, search=krull_schmidt_isomorphism) == 2
    _assert_walk_or_refusal(pairs)


class TestCertifiedSearch:
    def test_split_needs_product_candidates(self, monkeypatch):
        """End(S + S) = M_2(k) through the basis {1, E12, E21, E11 - E22 +
        E12 - E21}, each of whose members has one eigenvalue, in End^op and
        as a map of S + S; the product of the nilpotent parts of E12 and
        E21 splits."""
        K, _ = get_example("point")
        f = K.field
        SS = R.direct_sum([R.simple_rep(K, "1")] * 2)

        def endo(rows):
            return R.RepMap(SS, SS, {"1": Matrix(f, [[f.of(x) for x in r] for r in rows])})

        rows = ([[1, 0], [0, 1]], [[0, 1], [0, 0]], [[0, 0], [1, 0]], [[1, 1], [-1, -1]])
        basis = [endo(r) for r in rows]
        real = R.hom_space
        monkeypatch.setattr(R, "hom_space", lambda m, n: basis if m is n is SS else real(m, n))
        E, hom_bases = R.endomorphism_algebra([SS])
        assert hom_bases[(0, 0)] == basis and E.radical_basis() == []
        for k in range(E.dim):
            poly = reference_semisimple_min_poly(E, [], basis_element(E, k))
            assert len(R.roots(poly, f)) == 1
            assert len(R.roots(R._minimal_polynomial(basis[k]), f)) == 1
        assert [p.total_dim() for p in R.decompose(SS)] == [1, 1]
        # the reference's split takes the same candidates and keeps its maps
        parts = reference_split_completely(SS)
        total = zero_map(SS, SS)
        for i, (p, incl, proj) in enumerate(parts):
            assert check_map(incl) and check_map(proj)
            for j, (q, incl2, _) in enumerate(parts):
                want = R.identity_map(p) if i == j else zero_map(q, p)
                assert proj.compose(incl2) == want
            total = total + incl.compose(proj)
        assert total == R.identity_map(SS)
        assert [mult for _, mult in reference_decompose(SS)] == [2]

    def test_decomposable_non_isomorphic_with_equal_dims(self):
        """k[t]/t^2 + S against S^3: equal dimension vectors and a nonzero
        Hom space, but two summands against three.  Both are sums, so
        isomorphism refuses either pair."""
        D, _ = dual_numbers()
        P, S1 = R.projective(D, "1"), R.simple_rep(D, "1")
        m = R.direct_sum([P, S1])
        n = R.direct_sum([S1, S1, S1])
        assert m.dim_vector() == n.dim_vector() and R.hom_space(m, n)
        assert krull_schmidt_isomorphism(m, n) is None and krull_schmidt_isomorphism(n, m) is None
        assert _ref_isomorphism(m, n) is None
        assert _assert_walk_or_refusal([(m, n), (n, m)]) == 2

    def test_krull_schmidt_assembles_an_isomorphism(self):
        """k[t]/t^2 + S against S + k[t]/t^2: no map of the Hom basis is
        an isomorphism, so the reference assembles one from the paired
        summands, and isomorphism refuses the pair."""
        D, _ = dual_numbers()
        P, S1 = R.projective(D, "1"), R.simple_rep(D, "1")
        m = R.direct_sum([P, S1])
        n = R.direct_sum([S1, P])
        assert not any(phi.is_isomorphism() for phi in R.hom_space(m, n))
        phi = krull_schmidt_isomorphism(m, n)
        assert phi is not None and phi.is_isomorphism() and check_map(phi)
        assert _assert_walk_or_refusal([(m, n)]) == 1

    def test_newton_rejects_a_trivial_idempotent(self, B):
        P1 = R.projective(B, "1")
        with pytest.raises(R.RepError, match="other than 0 and 1"):
            R._newton_idempotent(R.identity_map(P1), P1)
        with pytest.raises(R.RepError, match="other than 0 and 1"):
            R._newton_idempotent(zero_map(P1, P1), P1)


@pytest.mark.parametrize("field_name", ["Q", "Fp:1000003"])
def test_newton_makes_a_near_idempotent_exact(field_name):
    """_newton_idempotent's update step, on an e with e^2 != e and the
    eigenvalues 0 and 1 only: over the dual numbers, on M = P + S, e is
    id_P plus P ->> S plus S >-> P, and e^2 - e is P ->> S >-> P."""
    f = field_from_name(field_name)
    D, _ = dual_numbers(f)
    M = R.direct_sum([R.projective(D, "1"), R.simple_rep(D, "1")])
    one, zero = f.one, f.zero
    # M's basis is e_1 and s of P, then the vector of S; column j of the
    # matrix is the image of the j-th basis vector
    e = R.RepMap(M, M, {"1": Matrix(f, [[one, zero, zero], [zero, one, one], [one, zero, zero]], 3)})
    assert check_map(e) and e.compose(e) != e
    idem = R._newton_idempotent(e, M)
    assert idem.compose(idem) == idem and idem.rank() == 2


@pytest.mark.parametrize("field_name", ["Q", "Fp:1000003"])
def test_simple_head_or_socle_skips_the_split_with_equal_verdicts(field_name):
    """Equal verdicts with and without the simple head or socle test, on
    every pair of standard, costandard, projective and injective modules of
    the built-in examples; some pairs take the test."""
    from qstrat import strat as S

    shortcut = 0
    for name in ("A", "B", "kxk", "point", "semiinf:3", "qsl2:3", "gl11:-1:2", "dzig:-1:2"):
        algebra, spec = get_example(name, field_from_name(field_name))
        fam = S.standard_family(algebra, spec)
        labels = sorted(algebra.vertices)
        modules = [fam.standard(v) for v in labels] + [fam.costandard(v) for v in labels]
        modules += [R.projective(algebra, v) for v in labels] + [R.injective(algebra, v) for v in labels]
        for m in modules:
            for n in modules:
                got, want = R.isomorphism(m, n), krull_schmidt_isomorphism(m, n)
                assert (got is None) == (want is None), (name, m, n)
                if got is not None:
                    assert got.is_isomorphism() and check_map(got)
                elif m.dim_vector() == n.dim_vector():
                    shortcut += 1
    assert shortcut > 0


@pytest.mark.parametrize("field_name", ["Q", "Fp:1000003"])
@pytest.mark.parametrize("name", ["A", "B", "kxk", "semiinf:3", "qsl2:3", "gl11:-1:2", "dzig:-1:2"])
def test_command_isomorphism_targets_are_indecomposable(name, field_name, monkeypatch):
    """Every isomorphism the report sweep's jobs on an example ask for
    (ringel, tilting, verify, and cellular in both flavors, at several
    signs) has a target that the End-algebra reference finds
    indecomposable, so each None is certified, and none raises."""
    from test_report_sweep import _tool

    tool = _tool()
    targets, raised = [], []
    real = R.isomorphism

    def asking(m, n):
        targets.append(n)
        try:
            return real(m, n)
        except R.RepError as e:
            raised.append(e)
            raise

    monkeypatch.setattr(R, "isomorphism", asking)
    tool.sweep([["--field", field_name, *argv] for argv in tool._example_jobs(name)])
    assert targets and not raised
    assert all(reference_is_indecomposable(n) for n in {id(n): n for n in targets}.values())


def test_simple_head_or_socle_builds_no_endomorphism_algebra(B, monkeypatch):
    """P1 and I2 over B share a dimension vector and are not isomorphic;
    P1 has a simple head and I2 a simple socle, so neither verdict builds
    End."""
    P1, I2 = R.projective(B, "1"), R.injective(B, "2")
    assert P1.dim_vector() == I2.dim_vector()
    assert R.head_constituents(P1) == {"1": 1} and R.socle_constituents(I2) == {"2": 1}
    built = []
    real = R.endomorphism_algebra
    monkeypatch.setattr(R, "endomorphism_algebra", lambda *a, **k: built.append(a) or real(*a, **k))
    assert R.isomorphism(P1, I2) is None and R.isomorphism(I2, P1) is None
    assert built == []
    assert krull_schmidt_isomorphism(P1, I2) is None and built
