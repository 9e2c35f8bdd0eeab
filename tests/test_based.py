import pytest

from oracles import (
    _bottom_standard_inclusion,
    _top_costandard_projection,
    basis_element,
    check_ideal_bases,
    check_map,
    element_by_name,
    krull_schmidt_isomorphism,
    path_count_dimension_oracle,
    unchecked_ringel_dual,
)

from qstrat import based as BD
from qstrat import rep as R
from qstrat import strat as S
from qstrat import tilting as TL
from qstrat.algebra import Algebra, Arrow, CharTooSmall, QuiverPresentation, build_algebra
from qstrat.exactla import Matrix, field_from_name
from qstrat.examples import get_example

PM = {"1": "+", "2": "-"}


def semiinf_triangular(window, field="Q"):
    alg, spec = get_example(f"semiinf:{window}", field_from_name(field))
    gamma = [str(i) for i in range(window + 1)]
    minus = [alg.idempotent(g) for g in gamma] + [
        element_by_name(alg, f"y{i}") for i in range(window)
    ]
    circ = [alg.idempotent(g) for g in gamma]
    plus = [alg.idempotent(g) for g in gamma] + [
        element_by_name(alg, f"x{i}") for i in range(window)
    ]
    return alg, spec, BD.TriangularData("triangular", alg, gamma, spec.poset, minus, circ, plus)


def B_triangular(field="Q"):
    B, spec = get_example("B", field_from_name(field))
    minus = [B.idempotent("1"), B.idempotent("2"), element_by_name(B, "y")]
    circ = [
        B.idempotent("1"),
        B.idempotent("2"),
        element_by_name(B, "s"),
        element_by_name(B, "t"),
    ]
    plus = [B.idempotent("1"), B.idempotent("2")]
    return B, spec, BD.TriangularData("triangular", B, ["1", "2"], spec.poset, minus, circ, plus)


def qsl2_triangular(window):
    alg, spec = get_example(f"qsl2:{window}")
    gamma = [str(i) for i in range(window + 1)]
    minus = [alg.idempotent(g) for g in gamma] + [
        element_by_name(alg, f"y{i}") for i in range(window)
    ]
    circ = [alg.idempotent(g) for g in gamma]
    plus = [alg.idempotent(g) for g in gamma] + [
        element_by_name(alg, f"x{i}") for i in range(window)
    ]
    # the down arrows lower the natural index, so the triangular order is
    # the natural one
    return alg, spec, BD.TriangularData("triangular", alg, gamma, spec.poset, minus, circ, plus)


def based(alg, td):
    """The based structure check_triangular assembles from passing data."""
    rep, st = BD.check_triangular(alg, td)
    assert rep.ok
    return st


class TestTrivialStructures:
    def test_one_vertex_field(self):
        alg, spec = get_example("point")
        e = alg.idempotent("1")
        st = BD.BasedStructure("QH", alg, spec, {("1", "1"): [e]}, {}, {("1", "1"): [e]})
        rep = BD.verify_based(alg, st)
        assert rep.ok

    def test_semisimple_trivial_cartan(self):
        K, spec = get_example("kxk")
        idems = [K.idempotent("1"), K.idempotent("2")]
        td = BD.TriangularData("triangular", K, ["1", "2"], spec.poset, list(idems), list(idems), list(idems))
        st = based(K, td)
        assert st.flavor == "QH"
        assert BD.verify_based(K, st).ok
        for b in ("1", "2"):
            assert st.Y[(b, b)] == [K.idempotent(b)]
            assert st.X[(b, b)] == [K.idempotent(b)]


class TestTriangularChecks:
    @pytest.mark.parametrize("window", [2, 3])
    def test_semiinf_passes(self, window):
        alg, spec, td = semiinf_triangular(window)
        rep, _ = BD.check_triangular(alg, td)
        assert rep.ok

    def test_B_passes(self):
        B, spec, td = B_triangular()
        assert BD.check_triangular(B, td)[0].ok

    def test_qsl2_passes(self):
        alg, spec, td = qsl2_triangular(2)
        rep, _ = BD.check_triangular(alg, td)
        assert rep.ok

    def test_bad_order_fails(self):
        alg, spec, td = semiinf_triangular(2)
        bad = BD.TriangularData(
            "triangular", alg, td.gamma, td.poset.reversed(), td.lowering, td.diagonal, td.raising
        )
        rep, st = BD.check_triangular(alg, bad)
        assert not rep.ok
        assert any(c.name == "triangular_order_vanishing" for c in rep.failures())
        assert st is None


@pytest.mark.parametrize("field", ["Q", "Fp:1000003"])
def test_each_whole_span_is_reduced_once(field, monkeypatch):
    """check_triangular and the check_cartan it runs row-reduce the minus
    and plus spans and the derived flat, circ and sharp spans once each."""
    B, _, td = B_triangular(field)
    cartan = BD.derive_cartan(B, td)
    reduced = []
    real = BD._span_rows

    def recorded(algebra, elements):
        reduced.append([e.coeffs for e in elements])
        return real(algebra, elements)

    monkeypatch.setattr(BD, "_span_rows", recorded)
    assert BD.check_triangular(B, td)[0].ok
    for part in (td.lowering, td.raising, cartan.lowering, cartan.diagonal, cartan.raising):
        assert reduced.count([e.coeffs for e in part]) == 1


@pytest.mark.parametrize("field", ["Q", "Fp:1000003"])
def test_a_diagonal_without_an_idempotent_fails_both_diagonal_checks(field):
    """circ_subalgebra is held to diag_subalgebra's check, with its witness:
    B's diagonal without e_2 is closed under products but misses e_2."""
    B, _, td = B_triangular(field)
    circ = [e for e in td.diagonal if e != B.idempotent("2")]
    missing = BD.TriangularData("triangular", B, td.gamma, td.poset, td.lowering, circ, td.raising)
    rep, st = BD.check_triangular(B, missing)
    checks = {c.name: c for c in rep.checks}
    for name in ("circ_subalgebra", "diag_subalgebra"):
        assert not checks[name].ok and checks[name].details == {"missing_idempotents": ["2"]}
    assert st is None


class TestCartanChecks:
    def test_cartan_data_give_the_structure_of_their_triangular_data(self):
        B, _, td = B_triangular()
        rep, st = BD.check_cartan(B, BD.derive_cartan(B, td))
        assert rep.ok and st.to_json() == based(B, td).to_json()

    def test_a_diagonal_that_is_not_pointed_fails_projectivity(self):
        # Q[x]/(x^2 + 1) is a field of dimension 2 over Q: as its own
        # diagonal it is semisimple, with one weight and no pointed quotient
        F = field_from_name("Q")
        pres = QuiverPresentation(F, ["1"], [Arrow("x", "1", "1")], [[(F.one, ("x", "x")), (F.one, ())]], 4)
        alg = build_algebra(pres)
        whole = [basis_element(alg, k) for k in range(alg.dim)]
        td = BD.TriangularData("cartan", alg, ["1"], S.Poset(["1"], []), whole, whole, whole)
        rep, st = BD.check_cartan(alg, td)
        assert st is None
        assert {c.name: c.details for c in rep.failures()} == {
            name: {"reason": "the diagonal is not pointed"}
            for name in ("flat_projective_over_diagonal", "sharp_projective_over_diagonal")
        }


def _loop_and_arrows(field, arrows, side, killed):
    """Vertex 1 with a loop s, s^2 = 0, and arrows between 1 and 2: out of
    1 for side flat, into 1 for side sharp, each killed by s when killed.
    Returns Cartan data on that algebra whose diagonal is e_1, e_2, s and
    whose space on the given side also holds the arrows and their products
    with s; the other side is the diagonal."""
    F = field_from_name(field)
    out = side == "flat"
    quiver = [Arrow("s", "1", "1")] + [Arrow(a, "1", "2") if out else Arrow(a, "2", "1") for a in arrows]
    rels = [[(F.one, ("s", "s"))]] + [[(F.one, (a, "s") if out else ("s", a))] for a in arrows if killed]
    alg = build_algebra(QuiverPresentation(F, ["1", "2"], quiver, rels, 4))
    s = element_by_name(alg, "s")
    diag = [alg.idempotent("1"), alg.idempotent("2"), s]
    joined = diag + [element_by_name(alg, a) for a in arrows]
    joined += [x * s if out else s * x for x in joined[3:]]
    flat, sharp = (joined, diag) if out else (diag, joined)
    return BD.TriangularData("cartan", alg, ["1", "2"], S.Poset(["1", "2"], [("2", "1")]), flat, diag, sharp)


@pytest.mark.parametrize("field", ["Q", "Fp:1000003"])
@pytest.mark.parametrize("side", ["flat", "sharp"])
@pytest.mark.parametrize(
    "arrows, killed",
    [(("u",), True), (("u", "v"), True), (("u",), False)],
    ids=["dimension-not-a-multiple", "too-many-generators", "free"],
)
def test_projectivity_over_the_diagonal_is_freeness(field, side, arrows, killed):
    """Over the local block k[s]/(s^2) at 1, the arrows' space is free
    exactly when s does not kill them: one arrow killed spans a space of
    dimension 1, two span one of dimension 2 with two generators, and one
    arrow not killed spans u, u s (resp. s u), free on u."""
    td = _loop_and_arrows(field, arrows, side, killed)
    rep, st = BD.check_cartan(td.algebra, td)
    checks = {c.name: c.ok for c in rep.checks}
    other = "sharp" if side == "flat" else "flat"
    assert checks[f"{side}_projective_over_diagonal"] is not killed
    assert checks[f"{other}_projective_over_diagonal"]
    assert (st is None) is killed


@pytest.mark.parametrize("field", ["Q", "Fp:1000003"])
class TestVerifyBasedFailures:
    """verify_based on the QH structure of semiinf:2 with one entry moved."""

    def test_a_wrongly_graded_element_fails_grading(self, field):
        alg, _, td = semiinf_triangular(2, field)
        st = based(alg, td)
        assert BD.verify_based(alg, st).ok
        i, b = next(key for key, ys in sorted(st.Y.items()) if key[0] != key[1] and ys)
        st.Y[(i, b)] = [alg.idempotent(b)]
        failed = {c.name for c in BD.verify_based(alg, st).failures()}
        assert "grading" in failed and "order_vanishing" not in failed

    def test_a_raising_element_read_as_lowering_fails_order_vanishing(self, field):
        alg, _, td = semiinf_triangular(2, field)
        st = based(alg, td)
        (b, j), xs = next((key, xs) for key, xs in sorted(st.X.items()) if key[0] != key[1] and xs)
        assert (b, j) not in st.Y
        st.Y[(b, j)] = xs  # graded as Y(b, j) asks, but j lies below b
        failed = {c.name for c in BD.verify_based(alg, st).failures()}
        assert "order_vanishing" in failed and "grading" not in failed


class TestBasedFromCartan:
    @pytest.mark.parametrize("window", [2, 3])
    def test_semiinf_qh(self, window):
        alg, spec, td = semiinf_triangular(window)
        st = based(alg, td)
        assert st.flavor == "QH"
        rep = BD.verify_based(alg, st)
        assert rep.ok
        count = next(c for c in rep.checks if c.name == "product_basis")
        assert count.details["products"] == alg.dim == 4 * window + 1
        # independent dimension oracle; depth three suffices since normal
        # words of the monomial ladder have length at most two
        assert path_count_dimension_oracle(alg.presentation, 3) == alg.dim

    def test_B_fqh_matches_known_data(self):
        B, spec, td = B_triangular()
        st = based(B, td)
        assert st.flavor == "FQH"
        assert st.Y[("2", "1")] == [element_by_name(B, "y")]
        assert st.Y[("1", "1")] == [B.idempotent("1")]
        assert ("1", "2") not in st.X or st.X[("1", "2")] == []
        assert {e for e in st.H[("1", "1")]} == {B.idempotent("1"), element_by_name(B, "s")}
        assert {e for e in st.H[("2", "2")]} == {B.idempotent("2"), element_by_name(B, "t")}
        assert BD.verify_based(B, st).ok

    def test_cell_modules_semiinf(self):
        alg, spec, td = semiinf_triangular(3)
        st = based(alg, td)
        for i in range(3):
            cell, tags = BD.cell_module(alg, st, str(i))
            assert cell.total_dim() == 2
            assert len(tags) == 2
        cell_top, tags_top = BD.cell_module(alg, st, "3")
        assert cell_top.total_dim() == 1

    def test_cell_verify(self):
        alg, spec, td = semiinf_triangular(2)
        st = based(alg, td)
        assert BD.cell_verify(alg, st).ok
        B, specB, tdB = B_triangular()
        stB = based(B, tdB)
        assert BD.cell_verify(B, stB).ok

    def test_costandard_available_reads_the_socle(self, monkeypatch):
        alg, spec, td = semiinf_triangular(2)
        st = based(alg, td)
        got = {c.name: c for c in BD.cell_verify(alg, st).checks}
        for b in st.special():
            check = got[f"costandard_available[{b}]"]
            assert check.ok and check.details == {"socle": {b: 1}}
        # a costandard with a two-dimensional socle fails the check
        def doubled(self, b, signs=None):
            L = R.simple_rep(self.algebra, str(b))
            return R.direct_sum([L, L])

        monkeypatch.setattr(S.StandardFamily, "costandard", doubled)
        monkeypatch.setattr(S.StandardFamily, "signed_costandard", doubled)
        got = {c.name: c for c in BD.cell_verify(alg, st).checks}
        for b in st.special():
            check = got[f"costandard_available[{b}]"]
            assert not check.ok and check.details == {"socle": {b: 2}}

    def test_ideal_bases(self):
        alg, spec, td = semiinf_triangular(2)
        st = based(alg, td)
        assert check_ideal_bases(alg, st).ok
        B, specB, tdB = B_triangular()
        stB = based(B, tdB)
        assert check_ideal_bases(B, stB).ok

    def test_splitness_conditions(self):
        # the emitted structure is split: the H spans are subalgebras and
        # the one-sided closures hold
        B, specB, tdB = B_triangular()
        st = based(B, tdB)
        for (a, b), hs in st.H.items():
            span = BD._span_rows(B, hs)
            assert BD._closed_under_products(B, hs, hs, span)
        # flat-side closure: A_lam . (Y H at lam) stays in the YH span
        for lam in ("1", "2"):
            ylist = [y for (i, yy) in st.y_at(lam) for y in [yy]]
            hs = st.H[(lam, lam)]
            flat = [y * h for y in ylist for h in hs if not (y * h).is_zero()] + ylist
            span = BD._span_rows(B, flat)
            assert BD._closed_under_products(B, flat, hs, span)

    def test_based_structure_induces_stratified(self):
        # a passing based structure certifies the stratified axioms with
        # the same standard modules
        alg, spec, td = semiinf_triangular(2)
        st = based(alg, td)
        rep = S.check_stratified(alg, st.spec)
        assert rep.ok

    def test_symmetric_structure_induces_fully_stratified(self):
        # the symmetric flavors certify flags for both signs at once
        B, specB, tdB = B_triangular()
        st = based(B, tdB)
        assert st.flavor == "FQH"
        assert S.check_fully_stratified(B, st.spec).ok


class TestExtractCellular:
    def test_B_gives_signed_structure_on_dual(self):
        B, spec = get_example("B")
        st, rd = BD.extract_cellular(B, spec.with_signs(PM), "auto")
        assert st.flavor == "eQH"
        assert rd.dual_algebra.dim == 14
        assert BD.verify_based(rd.dual_algebra, st).ok
        assert BD.cell_verify(rd.dual_algebra, st).ok
        # product counts match the graded dimensions of the dual
        for (i, j), d in rd.dual_algebra.graded_dims().items():
            count = 0
            for b in st.special():
                ys = st.Y.get((i, b), [])
                xs = st.X.get((b, j), [])
                count += len(ys) * len(xs)
            assert count == d

    @pytest.mark.parametrize("field", ["Q", "Fp:1000003"])
    def test_a_decomposable_tilting_module_is_refused(self, field, monkeypatch):
        """extract_cellular certifies each tilting module as ringel_dual
        does: T(b) + T(b) carries both flags, but is decomposable."""
        B, spec = get_example("B", field_from_name(field))
        climb = TL._tilting
        monkeypatch.setattr(TL, "_tilting", lambda *args: R.direct_sum([climb(*args)] * 2))
        with pytest.raises(TL.TiltingError):
            BD.extract_cellular(B, spec, "auto")

    def test_B_not_tilting_rigid_blocks_symmetric(self):
        # the tilting module at 1 under 1=+,2=- has no standard flag at
        # all-plus signs: its plus and minus tilting modules differ
        B, spec = get_example("B")
        with pytest.raises(TL.FlagFailed) as err:
            BD.extract_cellular(B, spec.with_signs(PM), flavor="BS")
        e = err.value
        assert (e.b, e.signs, e.failure.flavor) == ("1", {"1": "+", "2": "+"}, "standard")
        assert e.failure.peeled == []
        assert e.failure.stuck.dim_vector() == {"1": 2, "2": 4}

    def test_semisimple(self):
        K, spec = get_example("kxk")
        st, rd = BD.extract_cellular(K, spec, "auto")
        for b in ("1", "2"):
            assert st.Y[(b, b)] == [rd.dual_algebra.idempotent(b)]
            assert st.X[(b, b)] == [rd.dual_algebra.idempotent(b)]
        assert BD.verify_based(rd.dual_algebra, st).ok

    @pytest.mark.parametrize("window", [2, 3])
    def test_qsl2_sizes_match_hom_dims(self, window):
        Q, spec = get_example(f"qsl2:{window}")
        st, rd = BD.extract_cellular(Q, spec, "auto")
        fam = S.standard_family(Q, spec)
        for b in st.special():
            for i in st.special():
                want = R.hom_dim(rd.tilt.module(i), fam.signed_costandard(b))
                got = len(st.Y.get((i, b), []))
                assert got == want
        assert BD.verify_based(rd.dual_algebra, st).ok

    def test_qsl2_symmetric_flavor(self):
        Q, spec = get_example("qsl2:2")
        st, rd = BD.extract_cellular(Q, spec, flavor="FQH")
        assert st.symmetric
        assert BD.verify_based(rd.dual_algebra, st).ok

    def test_cell_modules_match_dual_standards(self):
        B, spec = get_example("B")
        st, rd = BD.extract_cellular(B, spec.with_signs(PM), "auto")
        dual_fam = S.standard_family(rd.dual_algebra, rd.dual_spec)
        for b in ("1", "2"):
            cell, _ = BD.cell_module(rd.dual_algebra, st, b)
            assert R.isomorphism(cell, dual_fam.signed_standard(b)) is not None


class TestVerifyRejections:
    def test_wrong_basis_rejected(self):
        alg, spec = get_example("point")
        e = alg.idempotent("1")
        st = BD.BasedStructure("QH", alg, spec, {("1", "1"): [e]}, {}, {("1", "1"): []})
        rep = BD.verify_based(alg, st)
        assert not rep.ok
        assert any(c.name == "product_basis" for c in rep.failures())

    def test_bad_normalization_rejected(self):
        B, spec, td = B_triangular()
        st = based(B, td)
        st.Y[("1", "1")] = [element_by_name(B, "s")]
        rep = BD.verify_based(B, st)
        assert not rep.ok
        assert any(c.name == "idempotent_normalization" for c in rep.failures())

    def test_stratum_radical_refused_by_the_field_is_a_configuration_error(self):
        # over F_2 the stratum corner at 1 (dim 2) has no trace-form
        # radical; a refused radical certifies nothing, so the stratum
        # axiom raises instead of failing without a witness
        B, _, td = B_triangular()
        st = based(B, td)
        B2, _ = get_example("B", field_from_name("Fp:2"))

        def over_f2(elements):  # B2 lists B's basis in the same order
            return {key: [B2.element(x.coeffs) for x in xs] for key, xs in elements.items()}

        st2 = BD.BasedStructure("eS", B2, st.spec, over_f2(st.Y), {}, over_f2(st.X))
        with pytest.raises(CharTooSmall):
            BD.verify_based(B2, st2)

    def test_other_radical_faults_propagate(self, monkeypatch):
        class Fault(ArithmeticError):
            pass

        def faulty(self):
            raise Fault("engine fault")

        B, _, td = B_triangular()
        st = based(B, td)
        monkeypatch.setattr(Algebra, "radical_basis", faulty)
        with pytest.raises(Fault):
            BD.verify_based(B, st)

    def test_changed_cell_module_differs_from_the_standard(self, monkeypatch):
        alg, _, td = semiinf_triangular(2)
        st = based(alg, td)
        real = BD.cell_module
        changed_at = []

        def changed(algebra, data, b):
            """The cell module, on a copy with one action entry changed
            where it has an action."""
            cell, tags = real(algebra, data, b)
            if not cell.act:
                return cell, tags
            k = min(cell.act)
            act = dict(cell.act)
            rows = [list(row) for row in act[k].rows]
            rows[0][0] = alg.field.add(rows[0][0], alg.field.one)
            act[k] = Matrix(alg.field, rows, act[k].ncols)
            changed_at.append((b, alg.basis[k].name))
            return R.Rep(algebra, dict(cell.dims), act), tags

        monkeypatch.setattr(BD, "cell_module", changed)
        checks = {c.name: c for c in BD.cell_verify(alg, st).checks}
        assert changed_at
        for b, name in changed_at:
            check = checks[f"cell_matches_standard[{b}]"]
            assert not check.ok and check.details == {"differs_at": name}


SWEEP_EXAMPLES = (
    "A", "B", "kxk", "point", "semiinf:3", "semiinf:4", "qsl2:3", "qsl2:5", "qsl2:6",
    "gl11:-1:2", "gl11:-2:3", "dzig:-1:2",
)


def _assert_end_map(cert, fam, module):
    """cert.end() is a homomorphism, injective from the family's signed
    standard itself into the module (standard flag) or from the module
    onto the family's signed costandard itself (costandard flag), and
    equals the map the section search finds."""
    end = cert.end()
    assert check_map(end)
    if cert.flavor == "standard":
        section, outer = end.source, end.target
        assert section is fam.signed_standard(cert.sections[0]) and end.rank() == section.total_dim()
        assert end == _bottom_standard_inclusion(module, cert, fam)
    else:
        section, outer = end.target, end.source
        assert section is fam.signed_costandard(cert.sections[-1]) and end.is_surjective()
        assert end == _top_costandard_projection(module, cert, fam)
    assert outer.dims == module.dims and outer.act == module.act


@pytest.mark.parametrize("field", ["Q", "Fp:1000003"])
@pytest.mark.parametrize("name", SWEEP_EXAMPLES)
def test_flag_end_maps_match_the_section_search(name, field):
    """Every tilting module's and every vertex projective's and
    injective's certified flags, at plus, minus and both alternating
    signs: the end map read off the peel is the one searched for."""
    alg, spec = get_example(name, field_from_name(field))
    elements = spec.poset.elements
    seen = 0
    for pattern in ("+", "-", "+-", "-+"):
        view = spec.with_signs({e: pattern[i % len(pattern)] for i, e in enumerate(elements)})
        fam = S.standard_family(alg, view)
        for b in sorted(alg.vertices):
            try:
                T, std, costd = TL.tilting_module(alg, view, b)
            except TL.FlagFailed:
                assert name == "A"  # A is not stratified at every sign
            else:
                _assert_end_map(std, fam, T)
                _assert_end_map(costd, fam, T)
                seen += 2
            for kind, module in (("projective", R.projective(alg, b)), ("injective", R.injective(alg, b))):
                cert = fam.vertex_flag(kind, b)
                if cert:
                    _assert_end_map(cert, fam, module)
                    seen += 1
                else:
                    assert name == "A"
    assert seen


@pytest.mark.parametrize("field", ["Q", "Fp:1000003"])
@pytest.mark.parametrize("flavor", ["auto", "BS"])
@pytest.mark.parametrize("pattern", ["+", "-", "+-", "-+"])
@pytest.mark.parametrize("name", SWEEP_EXAMPLES)
def test_cell_section_flags_match_the_krull_schmidt_reference(name, pattern, flavor, field, monkeypatch):
    """Every section of the projective cell filtrations of one cellular
    job.  Where the section must be a direct sum of standards (every
    stratum of an unsigned flavor, plus-sign strata of a signed one), its
    flag verdict with the X-leg counts equals the Krull-Schmidt reference's
    verdict against that sum, and each filtration's check is the
    conjunction of its sections'."""
    alg, spec = get_example(name, field_from_name(field))
    signed = spec.with_signs({e: pattern[i % len(pattern)] for i, e in enumerate(spec.poset.elements)})
    try:
        structure, rd = BD.extract_cellular(alg, signed, flavor)
    except TL.FlagFailed:
        # A is not stratified at every sign, and B is not tilting-rigid
        assert name == "A" or (name, flavor) == ("B", "BS")
        return
    sections, flags = [], {}
    real_sections, real_flag = BD._cell_sections, S.certify_flag

    def recording_sections(algebra, data, b):
        out = real_sections(algebra, data, b)
        sections.extend((b, lam, sec) for lam, sec in out)
        return out

    def recording_flag(module, family, flavor):
        cert = real_flag(module, family, flavor)
        flags.setdefault(id(module), []).append((module, cert))
        return cert

    monkeypatch.setattr(BD, "_cell_sections", recording_sections)
    monkeypatch.setattr(S, "certify_flag", recording_flag)
    dual, dual_spec = rd.dual_algebra, structure.spec
    fam = S.standard_family(dual, dual_spec)
    checks = {c.name: c.ok for c in BD.cell_verify(dual, structure).checks}
    verdicts, summed = {}, 0
    for b, lam, sec in sections:
        counts = {c: len([x for j, x in structure.x_at(c) if j == b]) for c in dual_spec.fiber(lam)}
        counts = {c: n for c, n in counts.items() if n}
        asked = [cert for module, cert in flags.get(id(sec), []) if module is sec]
        proper = structure.signed and dual_spec.sign(lam) == "-"
        kind = fam.proper_standard if proper else fam.standard
        pieces = [kind(c) for c, n in counts.items() for _ in range(n)]
        if not pieces or sec.total_dim() != sum(p.total_dim() for p in pieces):
            assert asked == []
            verdicts.setdefault(b, []).append(not pieces and sec.is_zero())
            continue
        (cert,) = asked
        good = isinstance(cert, S.FlagCertificate) and cert.multiplicities() == counts
        verdicts.setdefault(b, []).append(good)
        if proper:
            continue
        target = R.direct_sum(pieces) if len(pieces) > 1 else pieces[0]
        assert good == (krull_schmidt_isomorphism(sec, target) is not None), (b, lam)
        summed += len(pieces) > 1
    for b, oks in verdicts.items():
        assert checks[f"projective_cell_filtration[{b}]"] == all(oks)
    if (name, signed.signs, flavor) == ("B", PM, "auto"):
        assert summed  # a section is the sum of two standards


@pytest.mark.parametrize("field", ["Q", "Fp:1000003"])
def test_cell_section_that_is_no_sum_of_the_counted_standards_fails(field, monkeypatch):
    """cellular B --eps 1=+,2=-: the section of A e_1 at stratum 2 is the
    sum of two standards at 2.  In its place, a module of the same
    dimension with one of them and simples, or one of them and two
    standards at 1 (a flag with other multiplicities), fails the check, and
    the Krull-Schmidt reference finds no isomorphism to the sum."""
    B, spec = get_example("B", field_from_name(field))
    structure, rd = BD.extract_cellular(B, spec.with_signs(PM), "auto")
    dual = rd.dual_algebra
    fam = S.standard_family(dual, structure.spec)
    D1, D2 = fam.standard("1"), fam.standard("2")
    L = R.simples(dual)
    real = BD._cell_sections
    for others in ([L["1"], L["1"], L["2"], L["2"]], [D1, D1]):
        replaced = R.direct_sum([D2, *others])

        def patched(algebra, data, b, replaced=replaced):
            return [(lam, replaced if (b, lam) == ("1", "2") else sec) for lam, sec in real(algebra, data, b)]

        monkeypatch.setattr(BD, "_cell_sections", patched)
        checks = {c.name: c.ok for c in BD.cell_verify(dual, structure).checks}
        assert checks["projective_cell_filtration[1]"] is False
        assert checks["projective_cell_filtration[2]"] is True
        assert krull_schmidt_isomorphism(replaced, R.direct_sum([D2, D2])) is None


def _reference_proper_standard(quot, tmap, stratum, b):
    """The proper standard as built before the single proper quotient: one
    generating column per basis term of each stratum radical element."""
    std_small = R.projective(quot, b)
    f = quot.field
    by_vertex, order = {}, {}
    for k in range(quot.dim):
        if quot.src(k) == b:
            by_vertex.setdefault(quot.tgt(k), []).append(k)
    for ks in by_vertex.values():
        for i, k in enumerate(ks):
            order[k] = i
    fiber = stratum.idempotent_index
    corner_sel = [k for k in range(quot.dim) if quot.src(k) in fiber and quot.tgt(k) in fiber]
    cols = {u: [] for u in quot.vertices}
    for r in stratum.radical_basis():
        for k_small, c in r.coeffs.items():
            k_big = corner_sel[k_small]
            if quot.src(k_big) != b:
                continue
            vec = [f.zero] * len(by_vertex.get(quot.tgt(k_big), []))
            vec[order[k_big]] = c
            cols[quot.tgt(k_big)].append(vec)
    spans = {
        u: Matrix.from_columns(f, cs, nrows=std_small.dims.get(u, 0)) for u, cs in cols.items()
    }
    return R.quotient_rep(std_small, R.close_spans(std_small, spans))[0]


def _reference_sections(algebra, data, b):
    """The cell filtration sections as built before one closure per step:
    at every step the spans through order[r:] and order[r + 1:] are closed
    separately, and the inner span is closed again inside the larger."""
    spec = data.spec
    f = algebra.field
    P = R.projective(algebra, b)
    strata = {spec.stratum_of[a] for a in data.special()}
    order = [lam for lam in spec.poset.linear_extension() if lam in strata]
    by_vertex, offset = {}, {}
    for k in range(algebra.dim):
        if algebra.src(k) == b:
            by_vertex.setdefault(algebra.tgt(k), []).append(k)
    for ks in by_vertex.values():
        for i, k in enumerate(ks):
            offset[k] = i

    def span_of(lams):
        cols = {v: [] for v in by_vertex}
        for lam in lams:
            for c in [a for a in data.special() if spec.stratum_of[a] == lam]:
                xs = [x for (j, x) in data.x_at(c) if j == b]
                ylist = (
                    [
                        (i, y * h)
                        for a2 in data.special()
                        if spec.stratum_of[a2] == lam
                        for (i, y) in data.y_at(a2)
                        for h in data.h_at(a2, c)
                    ]
                    if data.symmetric
                    else data.y_at(c)
                )
                for x in xs:
                    for _, y in ylist:
                        prod = y * x
                        vec = {v: [f.zero] * len(ks) for v, ks in by_vertex.items()}
                        for k, cc in prod.coeffs.items():
                            vec[algebra.tgt(k)][offset[k]] = cc
                        for v in by_vertex:
                            if any(not f.is_zero(z) for z in vec[v]):
                                cols[v].append(vec[v])
        return {v: Matrix.from_columns(f, cs, nrows=len(by_vertex[v])) for v, cs in cols.items()}

    def closed_sub(spans):
        return R.sub_rep(P, R.close_spans(P, spans))

    out = []
    for r, lam in enumerate(order):
        span_ge, span_gt = span_of(set(order[r:])), span_of(set(order[r + 1 :]))
        sub, incl = closed_sub(span_ge)
        _, small_incl = closed_sub(span_gt)
        inner = {v: incl.mats[v].solve(small_incl.mats[v]) for v in algebra.vertices}
        out.append((lam, R.quotient_rep(sub, R.close_spans(sub, inner))[0]))
    return out


def _assert_same_module(m, n):
    assert m.algebra is n.algebra
    assert m.dims == n.dims
    assert m.act == n.act


def _same_proper_standards(alg, spec):
    """Every proper standard and proper costandard of the family equals
    the per-term reference."""
    fam = S.standard_family(alg, spec)
    for b in alg.vertices:
        lam = spec.stratum_of[b]
        for kind, a in (("proper_standard", alg), ("proper_costandard", alg.opposite())):
            quot, tmap = S.lower_quotient(a, spec, lam)
            stratum = quot.truncate_upper(set(spec.fiber(lam)))
            ref = S.inflate(_reference_proper_standard(quot, tmap, stratum, b), a, tmap)
            if kind == "proper_costandard":
                ref = R.dual(ref)
            _assert_same_module(getattr(fam, kind)(b), ref)


class TestMergedConstructionsMatchReferences:
    """The single proper quotient, cell module and once-closed cell
    filtration against the constructions they replaced."""

    @pytest.mark.parametrize("field", ["Q", "Fp:1000003"])
    @pytest.mark.parametrize("name", ["A", "B", "semiinf:3", "qsl2:3", "gl11:-1:2", "dzig:-1:2"])
    def test_proper_standards_of_example(self, name, field):
        _same_proper_standards(*get_example(name, field_from_name(field)))

    @pytest.mark.parametrize("field", ["Q", "Fp:1000003"])
    @pytest.mark.parametrize("sign", ["+", "-"])
    @pytest.mark.parametrize("name", ["A", "B", "semiinf:3", "qsl2:3", "gl11:-1:2", "dzig:-1:2"])
    def test_ringel_dual(self, name, sign, field):
        alg, spec = get_example(name, field_from_name(field))
        view = spec.with_signs({e: sign for e in spec.poset.elements})
        if (name, sign) == ("A", "-"):
            # A is not stratified at these signs: its tilting modules fail
            # their flags, so ringel_dual refuses them; their End algebra
            # still has the reference proper standards, and there is no
            # structure
            rd = unchecked_ringel_dual(alg, view)
            _same_proper_standards(rd.dual_algebra, rd.dual_spec)
            with pytest.raises(TL.FlagFailed):
                BD.extract_cellular(alg, view, "auto")
            return
        st, rd = BD.extract_cellular(alg, view, "auto")
        dual = rd.dual_algebra
        _same_proper_standards(dual, rd.dual_spec)
        for b in st.special():
            lam = st.spec.stratum_of[b]
            quot, tmap = S.lower_quotient(dual, st.spec, lam)
            if st.spec.sign(lam) == "-":
                stratum = quot.truncate_upper(set(st.spec.fiber(lam)))
                want = _reference_proper_standard(quot, tmap, stratum, b)
            else:
                want = R.projective(quot, b)
            _assert_same_module(BD.cell_module(dual, st, b)[0], S.inflate(want, dual, tmap))
            got = BD._cell_sections(dual, st, b)
            ref = _reference_sections(dual, st, b)
            assert [lam for lam, _ in got] == [lam for lam, _ in ref]
            for (_, m), (_, n) in zip(got, ref):
                _assert_same_module(m, n)
