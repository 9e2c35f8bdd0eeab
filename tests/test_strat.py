import pytest

from oracles import (
    basis_element,
    check_valid,
    costandardize,
    element_by_name,
    lower_set,
    standardize,
    upper_set,
    verify_certificate,
)

from qstrat import rep as R
from qstrat import strat as S
from qstrat import tilting as TL
from qstrat.algebra import Arrow, QuiverPresentation, build_algebra
from qstrat.exactla import Matrix, field_from_name, span_rref
from qstrat.examples import get_example

ALL_SIGNS_2 = [
    {"1": "+", "2": "+"},
    {"1": "+", "2": "-"},
    {"1": "-", "2": "+"},
    {"1": "-", "2": "-"},
]


class TestPoset:
    def test_closure_and_minimal(self):
        p = S.Poset(["a", "b", "c"], [("a", "b"), ("b", "c")])
        assert p.leq("a", "c") and not p.leq("c", "a")
        assert p.minimal(p.elements) == ["a"]
        assert lower_set(p, ["b"]) == {"a", "b"}
        assert upper_set(p, ["b"]) == {"b", "c"}

    def test_cycle_rejected(self):
        with pytest.raises(S.StratError):
            S.Poset(["a", "b"], [("a", "b"), ("b", "a")])

    def test_reversed(self):
        p = S.Poset(["a", "b"], [("a", "b")])
        assert p.reversed().leq("b", "a")

    def test_linear_extension(self):
        p = S.Poset(["a", "b", "c", "d"], [("a", "c"), ("b", "c"), ("c", "d")])
        order = p.linear_extension()
        for x, y in [("a", "c"), ("b", "c"), ("c", "d")]:
            assert order.index(x) < order.index(y)

    def test_spec_json_round_trip(self):
        _, spec = get_example("B")
        again = S.StratSpec.from_json(spec.to_json())
        assert again.stratum_of == spec.stratum_of
        assert again.signs == spec.signs
        assert set(again.poset.covers) == set(spec.poset.covers)


class TestStratumAlgebras:
    def test_B_strata_are_dual_numbers(self, algB):
        B, spec = algB
        s1 = S.stratum_algebra(B, spec, "1")
        s2 = S.stratum_algebra(B, spec, "2")
        assert s1.dim == 2 and len(s1.radical_basis()) == 1
        assert s2.dim == 2 and len(s2.radical_basis()) == 1

    def test_semiinf_strata_trivial(self, semiinf_3):
        alg, spec = semiinf_3
        for lam in spec.poset.elements:
            assert S.stratum_algebra(alg, spec, lam).dim == 1

    def test_qsl2_strata_trivial(self, qsl2_2):
        alg, spec = qsl2_2
        for lam in spec.poset.elements:
            assert S.stratum_algebra(alg, spec, lam).dim == 1


class TestStandardFamily:
    def test_B_standard_dims(self, algB):
        B, spec = algB
        fam = S.standard_family(B, spec)
        assert fam.standard("1").total_dim() == 4
        assert fam.standard("2").total_dim() == 2
        assert fam.proper_standard("1").dims == {"1": 1, "2": 1}
        assert fam.proper_standard("2").total_dim() == 1
        assert fam.costandard("1").total_dim() == 2
        assert fam.costandard("2").total_dim() == 2
        assert fam.proper_costandard("1").total_dim() == 1
        assert fam.proper_costandard("2").total_dim() == 1

    def test_B_standard_is_projective(self, algB):
        B, spec = algB
        fam = S.standard_family(B, spec)
        assert R.isomorphism(fam.standard("1"), R.projective(B, "1")) is not None
        assert R.isomorphism(fam.standard("2"), R.projective(B, "2")) is not None
        assert R.isomorphism(fam.costandard("1"), R.injective(B, "1")) is not None

    def test_semisimple_families_collapse(self):
        K, spec = get_example("kxk")
        fam = S.standard_family(K, spec)
        for b in ("1", "2"):
            L = R.simple_rep(K, b)
            for mod in (
                fam.standard(b),
                fam.proper_standard(b),
                fam.costandard(b),
                fam.proper_costandard(b),
            ):
                assert R.isomorphism(mod, L) is not None

    def test_qsl2_standard_dims(self, qsl2_4):
        Q, spec = qsl2_4
        fam = S.standard_family(Q, spec)
        assert fam.standard("0").total_dim() == 1
        for i in range(1, 5):
            std = fam.standard(str(i))
            assert std.dims[str(i)] == 1 and std.dims[str(i - 1)] == 1
            assert std.total_dim() == 2
        # all strata simple: proper equals full
        for i in range(5):
            assert R.isomorphism(fam.standard(str(i)), fam.proper_standard(str(i))) is not None

    def test_orthogonality(self, algB):
        B, spec = algB
        for signs in ALL_SIGNS_2:
            fam = S.standard_family(B, spec.with_signs(signs))
            for b in ("1", "2"):
                for c in ("1", "2"):
                    d = R.hom_dim(fam.signed_standard(b), fam.signed_costandard(c))
                    assert d == (1 if b == c else 0)

    def test_all_simple_criterion(self, qsl2_2, algB):
        Q, specQ = qsl2_2
        assert S.check_simple_strata(Q, specQ).ok
        B, specB = algB
        assert not S.check_simple_strata(B, specB).ok


KINDS = ("standard", "costandard", "proper_standard", "proper_costandard")


class TestFamilyMemo:
    """Standard modules are memoized per algebra and stratification, each
    (label, kind) built on its first use; a family is a view that carries
    its caller's signs."""

    @pytest.fixture
    def builds(self, monkeypatch):
        out = []
        build = S.StandardFamily._build

        def counted(fam, b, kind):
            out.append((b, kind))
            return build(fam, b, kind)

        monkeypatch.setattr(S.StandardFamily, "_build", counted)
        return out

    def test_signs_share_one_build(self, builds):
        B, spec = get_example("B")
        specs = [spec.with_signs(signs) for signs in ALL_SIGNS_2]
        # an equal stratification built anew is the same key
        poset = S.Poset(spec.poset.elements, spec.poset.covers)
        specs.append(S.StratSpec(poset, dict(spec.stratum_of), ALL_SIGNS_2[1]))
        fams = [S.standard_family(B, sp) for sp in specs]
        assert builds == []  # nothing is built before it is read
        for fam in fams:
            for b in ("1", "2"):
                for kind in KINDS:
                    assert getattr(fam, kind)(b) is getattr(fams[0], kind)(b)
        assert sorted(builds) == sorted((b, kind) for b in ("1", "2") for kind in KINDS)

    def test_one_kind_builds_only_itself(self, builds, monkeypatch):
        B, spec = get_example("B")
        opp = B.opposite()
        opp_lower = []
        truncate = type(opp).truncate_lower

        def counted(alg, kill):
            if alg is opp:
                opp_lower.append(kill)
            return truncate(alg, kill)

        monkeypatch.setattr(type(opp), "truncate_lower", counted)
        fam = S.standard_family(B, spec)
        for b in ("1", "2"):
            fam.standard(b)
        assert builds == [("1", "standard"), ("2", "standard")]
        assert opp_lower == []
        fam.proper_costandard("1")
        # the proper costandard is the dual over the opposite of the one
        # lower quotient: B.opposite() is never truncated
        assert opp_lower == [] and builds[-1] == ("1", "proper_costandard")

    def test_unsigned_calls_follow_the_view(self):
        B, spec = get_example("B")
        fams = [
            S.standard_family(B, spec.with_signs(signs))
            for signs in ALL_SIGNS_2
        ]
        for fam, signs in zip(fams, ALL_SIGNS_2):
            for b in ("1", "2"):
                plus = signs[spec.stratum_of[b]] == "+"
                std = fam.standard(b) if plus else fam.proper_standard(b)
                costd = fam.proper_costandard(b) if plus else fam.costandard(b)
                assert fam.signed_standard(b) is std
                assert fam.signed_costandard(b) is costd

    def test_other_stratification_builds_its_own(self, builds):
        B, spec = get_example("B")
        fam = S.standard_family(B, spec)
        rev = S.StratSpec(spec.poset.reversed(), dict(spec.stratum_of), spec.signs)
        fam_rev = S.standard_family(B, rev)
        fam.standard("1"), fam_rev.standard("1"), fam.standard("1")
        assert builds == [("1", "standard"), ("1", "standard")]
        assert len(B._families) == 2
        assert fam_rev.standard("1").dims != fam.standard("1").dims

    def test_non_split_raises_on_every_call(self):
        from qstrat.algebra import Arrow, QuiverPresentation, build_algebra
        from qstrat.exactla import QQ

        # k[x]/(x^2 + 1) is a field extension of Q: not pointed split
        pres = QuiverPresentation(
            field=QQ,
            vertices=["1"],
            arrows=[Arrow("x", "1", "1")],
            relations=[[(QQ.one, ("x", "x")), (QQ.one, ())]],
            degree_bound=4,
        )
        alg = build_algebra(pres)
        spec = S.StratSpec(S.Poset(["1"], []), {"1": "1"}, {"1": "+"})
        for _ in range(2):
            with pytest.raises(R.NotSplit):
                S.standard_family(alg, spec)
        assert alg._families == {}


class TestStandardization:
    def test_standardize_stratum_projective(self, algB):
        B, spec = algB
        fam = S.standard_family(B, spec)
        for lam in ("1", "2"):
            stratum = S.stratum_algebra(B, spec, lam)
            got = standardize(B, spec, lam, R.projective(stratum, lam))
            assert R.isomorphism(got, fam.standard(lam)) is not None
            got2 = costandardize(B, spec, lam, R.injective(stratum, lam))
            assert R.isomorphism(got2, fam.costandard(lam)) is not None

    def test_standardize_stratum_simple(self, algB):
        B, spec = algB
        fam = S.standard_family(B, spec)
        stratum = S.stratum_algebra(B, spec, "1")
        got = standardize(B, spec, "1", R.simple_rep(stratum, "1"))
        assert R.isomorphism(got, fam.proper_standard("1")) is not None
        assert got.dims == {"1": 1, "2": 1}

    def test_simple_stratum_collapse(self, qsl2_2):
        Q, spec = qsl2_2
        fam = S.standard_family(Q, spec)
        stratum = S.stratum_algebra(Q, spec, "1")
        got = standardize(Q, spec, "1", R.simple_rep(stratum, "1"))
        assert R.isomorphism(got, fam.standard("1")) is not None

    def test_unit_of_adjunction(self, algB):
        B, spec = algB
        stratum = S.stratum_algebra(B, spec, "1")
        P = R.projective(stratum, "1")
        induced = standardize(B, spec, "1", P)
        back = S.restrict(induced, stratum, B.corner_positions(stratum.vertices))
        assert R.isomorphism(back, P) is not None
        I = R.injective(stratum, "1")
        coind = costandardize(B, spec, "1", I)
        back2 = S.restrict(coind, stratum, B.corner_positions(stratum.vertices))
        assert R.isomorphism(back2, I) is not None


def _reference_projective_basis(algebra, vertex):
    by_vertex = {}
    for k in range(algebra.dim):
        if algebra.src(k) == vertex:
            by_vertex.setdefault(algebra.tgt(k), []).append(k)
    pos = {k: i for ks in by_vertex.values() for i, k in enumerate(ks)}
    return by_vertex, pos


def _reference_projective(algebra, vertex):
    """projective as it was built before rep.free_module."""
    alg = algebra
    f = alg.field
    by_vertex, pos = _reference_projective_basis(alg, vertex)
    dims = {v: len(ks) for v, ks in by_vertex.items()}
    act = {}
    for g in range(alg.dim):
        bg = alg.basis[g]
        src_list = by_vertex.get(bg.src, [])
        tgt_list = by_vertex.get(bg.tgt, [])
        if not src_list or not tgt_list:
            continue
        rows = [[f.zero] * len(src_list) for _ in tgt_list]
        nonzero = False
        for j, k in enumerate(src_list):
            for m, c in alg.mult.get((g, k), ()):
                rows[pos[m]][j] = c
                nonzero = True
        if nonzero:
            act[g] = Matrix(f, rows, len(src_list))
    return R.Rep(alg, dims, act)


def _reference_tensor_presentation(quot, stratum, module):
    """_tensor_presentation as it was before rep.free_module: dense
    relation vectors over the whole module, regrouped per vertex."""
    f = quot.field
    fiber = set(stratum.vertices)
    # pairs (basis element u of A e-bar, coordinate of module at src(u))
    pairs = []
    for k in range(quot.dim):
        if quot.src(k) in fiber:
            for j in range(module.dims[quot.src(k)]):
                pairs.append((k, j))
    index = {p: i for i, p in enumerate(pairs)}
    n = len(pairs)
    corner_sel = [
        k for k in range(quot.dim) if quot.src(k) in fiber and quot.tgt(k) in fiber
    ]
    # relations: (u * abar) tensor w - u tensor (abar . w), for abar a
    # non-idempotent basis element of the corner
    rel_cols = []
    idem_small = set(stratum.idempotent_index.values())
    for i_small in range(stratum.dim):
        if i_small in idem_small:
            continue
        a_big = corner_sel[i_small]
        a_small_mat = module.action(i_small)
        for u in range(quot.dim):
            if quot.src(u) not in fiber:
                continue
            if quot.src(u) != quot.tgt(a_big):
                continue
            # u * a
            prod = quot.multiply(basis_element(quot, u), basis_element(quot, a_big))
            for j in range(module.dims[quot.src(a_big)]):
                vec = [f.zero] * n
                for m, c in prod.coeffs.items():
                    vec[index[(m, j)]] = f.add(vec[index[(m, j)]], c)
                col = a_small_mat.column(j)
                for jj, c in enumerate(col):
                    if not f.is_zero(c):
                        idx = index[(u, jj)]
                        vec[idx] = f.sub(vec[idx], c)
                if any(not f.is_zero(x) for x in vec):
                    rel_cols.append(vec)
    # build the big module structure on pairs, graded by tgt(u)
    by_vertex = {}
    for p in pairs:
        by_vertex.setdefault(quot.tgt(p[0]), []).append(p)
    offsets = {}
    for v, ps in by_vertex.items():
        for i, p in enumerate(ps):
            offsets[p] = i
    dims = {v: len(ps) for v, ps in by_vertex.items()}
    act = {}
    for g in range(quot.dim):
        bg = quot.basis[g]
        src_list = by_vertex.get(bg.src, [])
        tgt_list = by_vertex.get(bg.tgt, [])
        if not src_list or not tgt_list:
            continue
        rows = [[f.zero] * len(src_list) for _ in tgt_list]
        nz = False
        for col_i, (u, j) in enumerate(src_list):
            prod = quot.mult.get((g, u))
            if not prod:
                continue
            for m, c in prod:
                rows[offsets[(m, j)]][col_i] = c
                nz = True
        if nz:
            act[g] = Matrix(f, rows, len(src_list))
    big = R.Rep(quot, dims, act)
    # quotient by the relation columns, regrouped per vertex
    spans = {v: [] for v in quot.vertices}
    for vec in rel_cols:
        grouped = {}
        for p, i in index.items():
            c = vec[i]
            if f.is_zero(c):
                continue
            v = quot.tgt(p[0])
            if v not in grouped:
                grouped[v] = [f.zero] * dims[v]
            grouped[v][offsets[p]] = c
        for v, col in grouped.items():
            spans[v].append(col)
    return big, {
        v: Matrix.from_columns(f, cs, nrows=dims.get(v, 0)) for v, cs in spans.items()
    }


def _recorded_presentations(name, pattern, field, monkeypatch):
    """Standardize and costandardize every stratum projective and
    injective of an example, and build every tilting module under a sign
    pattern, recording each _tensor_presentation call as ((quot, stratum,
    module), result).  Returns (algebra, spec, calls)."""
    alg, spec = get_example(name, field_from_name(field))
    labels = sorted(spec.poset.elements)
    signs = {
        e: {"plus": "+", "minus": "-", "alternating": "+-"[i % 2]}[pattern]
        for i, e in enumerate(labels)
    }
    seen = []
    present = S._tensor_presentation

    def recorded(quot, stratum, module):
        seen.append(((quot, stratum, module), present(quot, stratum, module)))
        return seen[-1][1]

    monkeypatch.setattr(S, "_tensor_presentation", recorded)
    for lam in labels:
        stratum = S.stratum_algebra(alg, spec, lam)
        for b in spec.fiber(lam):
            standardize(alg, spec, lam, R.projective(stratum, b))
            costandardize(alg, spec, lam, R.injective(stratum, b))
    for b in sorted(alg.vertices):
        TL._tilting(alg, spec.with_signs(signs), b)  # every corner the tilting loop visits
    assert seen
    return alg, spec, seen


@pytest.mark.parametrize("field", ["Q", "Fp:1000003"])
@pytest.mark.parametrize("pattern", ["plus", "alternating", "minus"])
@pytest.mark.parametrize(
    "name", ["A", "B", "kxk", "point", "semiinf:3", "qsl2:3", "gl11:-1:2", "dzig:-1:2"]
)
class TestRelationSpanIsASubmodule:
    """induce_from_corner divides by the relation span without closing it
    under the action; closing it must not add a vector at any vertex.  The
    free modules and relation spans match the dense construction they
    replaced."""

    def test_closure_does_not_grow(self, name, pattern, field, monkeypatch):
        _, _, seen = _recorded_presentations(name, pattern, field, monkeypatch)
        for _, (big, spans) in seen:
            closed = R.close_spans(big, spans)
            for v in big.algebra.vertices:
                assert closed[v].ncols == spans[v].rank()

    def test_presentation_matches_dense_reference(self, name, pattern, field, monkeypatch):
        _, _, seen = _recorded_presentations(name, pattern, field, monkeypatch)
        for args, (big, spans) in seen:
            ref_big, ref_spans = _reference_tensor_presentation(*args)
            assert (big.dims, big.act) == (ref_big.dims, ref_big.act)
            assert spans.keys() == ref_spans.keys()
            f = big.algebra.field
            for v, span in spans.items():
                d = big.dims[v]
                assert span_rref(f, span.columns(), d).rows == span_rref(f, ref_spans[v].columns(), d).rows

    def test_projective_matches_reference(self, name, pattern, field, monkeypatch):
        # the example and its opposite, each lower quotient, and every
        # ambient and corner algebra the tilting loop induces between
        alg, spec, seen = _recorded_presentations(name, pattern, field, monkeypatch)
        algebras = [alg, alg.opposite()]
        algebras += [S.lower_quotient(alg, spec, lam)[0] for lam in spec.poset.elements]
        algebras += [a for (quot, stratum, _), _ in seen for a in (quot, stratum)]
        for a in {id(a): a for a in algebras}.values():
            for v in a.vertices:
                P, ref = R.projective(a, v), _reference_projective(a, v)
                assert (P.dims, P.act) == (ref.dims, ref.act)


class TestFlags:
    def test_standard_itself(self, algB):
        B, spec = algB
        fam = S.standard_family(B, spec)
        cert = S.certify_flag(fam.standard("1"), fam, "standard")
        assert isinstance(cert, S.FlagCertificate)
        assert cert.sections == ["1"]
        assert verify_certificate(fam.standard("1"), fam, cert)

    def test_projective_flag_plus_sign(self, algB):
        # with a plus sign at the top weight the projective is its own flag
        B, spec = algB
        signs = {"1": "+", "2": "-"}
        fam = S.standard_family(B, spec.with_signs(signs))
        cert = S.certify_flag(R.projective(B, "1"), fam, "standard")
        assert isinstance(cert, S.FlagCertificate)
        assert cert.sections == ["1"]

    def test_projective_flag_minus_sign(self, algB):
        # with a minus sign at the top weight the projective stacks two
        # proper standards
        B, spec = algB
        signs = {"1": "-", "2": "+"}
        fam = S.standard_family(B, spec.with_signs(signs))
        cert = S.certify_flag(R.projective(B, "1"), fam, "standard")
        assert isinstance(cert, S.FlagCertificate)
        assert cert.sections == ["1", "1"]
        assert verify_certificate(R.projective(B, "1"), fam, cert)

    def test_injective_costandard_flag(self, algB):
        B, spec = algB
        signs = {"1": "-", "2": "+"}
        fam = S.standard_family(B, spec.with_signs(signs))
        cert = S.certify_flag(R.injective(B, "2"), fam, "costandard")
        assert isinstance(cert, S.FlagCertificate)
        assert cert.multiplicities() == {"2": 2, "1": 1}

    def test_failure_is_reported(self, algA):
        A, spec = algA
        signs = {"1": "+", "2": "-"}
        fam = S.standard_family(A, spec.with_signs(signs))
        res = S.certify_flag(R.projective(A, "1"), fam, "standard")
        assert isinstance(res, S.FlagFailure)
        assert not res

    def test_flag_multiplicity_matches_hom_dims(self, algB):
        B, spec = algB
        for signs in ALL_SIGNS_2:
            fam = S.standard_family(B, spec.with_signs(signs))
            for b in ("1", "2"):
                P = R.projective(B, b)
                cert = S.certify_flag(P, fam, "standard")
                assert isinstance(cert, S.FlagCertificate)
                for c in ("1", "2"):
                    want = R.hom_dim(P, fam.signed_costandard(c))
                    assert cert.multiplicities().get(c, 0) == want


class TestCheckStratified:
    @pytest.mark.parametrize("signs", ALL_SIGNS_2)
    def test_B_all_signs_pass(self, algB, signs):
        B, spec = algB
        rep = S.check_stratified(B, spec.with_signs(signs))
        assert rep.ok

    def test_A_passes_plus_on_top(self, algA):
        A, spec = algA
        assert S.check_stratified(A, spec.with_signs({"1": "+", "2": "+"})).ok
        assert S.check_stratified(A, spec.with_signs({"1": "-", "2": "+"})).ok

    @pytest.mark.parametrize("signs", [{"1": "+", "2": "-"}, {"1": "-", "2": "-"}])
    def test_A_fails_minus_on_top_with_witness(self, algA, signs):
        A, spec = algA
        rep = S.check_stratified(A, spec.with_signs(signs))
        assert not rep.ok
        bad = rep.failures()
        assert bad and all("witness" in c.details for c in bad)

    def test_semisimple_any_spec(self):
        K, spec = get_example("kxk")
        for signs in ALL_SIGNS_2:
            assert S.check_stratified(K, spec.with_signs(signs)).ok

    def test_qsl2_highest_weight(self, qsl2_2):
        Q, spec = qsl2_2
        assert S.check_stratified(Q, spec).ok
        assert S.check_simple_strata(Q, spec).ok

    def test_opposite_duality(self, algA, algB, qsl2_2):
        # stratified at given signs iff the opposite is stratified at the
        # negated signs
        for alg, spec in (algB, algA, qsl2_2):
            opp = alg.opposite()
            for signs in ([dict.fromkeys(spec.poset.elements, "+")]
                          + ([{"1": "+", "2": "-"}] if len(spec.poset.elements) == 2 else [])):
                spec_signed = spec.with_signs(signs)
                lhs = S.check_stratified(alg, spec_signed).ok
                rhs = S.check_stratified(opp, spec_signed.negated()).ok
                assert lhs == rhs


class TestBggAndExt:
    @pytest.mark.parametrize("signs", ALL_SIGNS_2)
    def test_B_reciprocity(self, algB, signs):
        B, spec = algB
        assert S.bgg_reciprocity(B, spec.with_signs(signs)).ok

    def test_semisimple_reciprocity(self):
        K, spec = get_example("kxk")
        assert S.bgg_reciprocity(K, spec).ok

    def test_qsl2_reciprocity(self, qsl2_2):
        Q, spec = qsl2_2
        assert S.bgg_reciprocity(Q, spec).ok

    def test_B_ext_orthogonality(self, algB):
        B, spec = algB
        for signs in ALL_SIGNS_2:
            assert S.ext_orthogonality(B, spec.with_signs(signs), nmax=3).ok

    def test_B_ext_orthogonality_depth_four(self, algB):
        B, spec = algB
        assert S.ext_orthogonality(B, spec.with_signs({"1": "+", "2": "-"}), nmax=4).ok

    def test_proper_ext_transfers_to_the_stratum(self, algB):
        B, spec = algB
        # the stratum is dual numbers: Ext^n(L, L) = 1 in every degree,
        # matched by the proper standard/costandard transfer
        fam = S.standard_family(B, spec)
        stratum = S.stratum_algebra(B, spec, spec.stratum_of["1"])
        proper, simple = fam.proper_standard("1"), R.simple_rep(stratum, "1")
        got = R.ext_dims(R.Resolution(proper, 4), fam.proper_costandard("1"), 3)
        want = R.ext_dims(R.Resolution(simple, 4), simple, 3)
        assert got == want == [1, 1, 1, 1]
        # labels in different strata: no Ext in any degree
        assert spec.stratum_of["1"] != spec.stratum_of["2"]
        assert R.ext_dims(R.Resolution(proper, 3), fam.proper_costandard("2"), 2) == [0, 0, 0]

    def test_fully_stratified(self, algA, algB):
        B, specB = algB
        assert S.check_fully_stratified(B, specB).ok
        A, specA = algA
        assert not S.check_fully_stratified(A, specA).ok


def _simple_resolutions(algebra, bound):
    return {v: R.Resolution(R.simple_rep(algebra, v), bound) for v in sorted(algebra.vertices)}


def _repeats(res):
    """Whether the last two syzygies of a resolution have equal dimensions."""
    dims = [K.dim_vector() for K in res.syzygies]
    return len(dims) >= 2 and dims[-1] == dims[-2]


class TestGlobalDimension:
    def test_semisimple_zero(self):
        K, _ = get_example("kxk")
        for res in _simple_resolutions(K, 8).values():
            assert res.terminated and len(res.terms) - 1 == 0

    def test_B_infinite_with_period(self, algB):
        B, _ = algB
        resolutions = _simple_resolutions(B, 6).values()
        assert not all(res.terminated for res in resolutions)
        assert any(_repeats(res) for res in resolutions if not res.terminated)

    def test_qsl2_finite(self, qsl2_2):
        Q, _ = qsl2_2
        resolutions = _simple_resolutions(Q, 8).values()
        assert all(res.terminated for res in resolutions)
        assert max(len(res.terms) - 1 for res in resolutions) == 4

    def test_A_tilting_module_resolution_matches(self, algB):
        # over the algebra with the loop at the lower vertex, the larger
        # tilting module has an aperiodic-free infinite resolution whose
        # first term matches its head
        from qstrat import tilting as TL

        B, spec = algB
        T1, _, _ = TL.tilting_module(B, spec.with_signs({"1": "+", "2": "-"}), "1")
        res = R.Resolution(T1, 6)
        assert not res.terminated
        assert _repeats(res)
        assert sorted(res.term_labels[0]) == ["1", "2", "2"]
        assert sorted(res.term_labels[1]) == ["2", "2"]


@pytest.mark.parametrize("field", ["Q", "Fp:1000003"])
@pytest.mark.parametrize("pattern", ["plus", "alternating", "minus"])
@pytest.mark.parametrize(
    "name", ["A", "B", "kxk", "point", "semiinf:3", "qsl2:3", "gl11:-1:2", "dzig:-1:2"]
)
def test_forced_multiplicities_match_hom_dimensions(name, pattern, field):
    """check_stratified reads the forced multiplicities as dimensions at b;
    the reference is the Hom form, Hom(P(b), costd(c)) resp.
    Hom(std(c), I(b)), on every flag check of the report."""
    alg, spec = get_example(name, field_from_name(field))
    labels = sorted(spec.poset.elements)
    signs = {
        e: {"plus": "+", "minus": "-", "alternating": "+-"[i % 2]}[pattern]
        for i, e in enumerate(labels)
    }
    fam = S.standard_family(alg, spec.with_signs(signs))
    rep = S.check_stratified(alg, spec.with_signs(signs), with_ext=False)
    flags = {c.name: c.details for c in rep.checks if "_flag[" in c.name}
    assert len(flags) == 2 * len(alg.vertices)
    for b in alg.vertices:
        for kind in ("projective", "injective"):
            if kind == "projective":
                want = {c: R.hom_dim(R.projective(alg, b), fam.signed_costandard(c)) for c in alg.vertices}
            else:
                want = {c: R.hom_dim(fam.signed_standard(c), R.injective(alg, b)) for c in alg.vertices}
            details = flags[f"{kind}_flag[{b}]"]
            got = details["witness"]["forced_multiplicities"] if "witness" in details else details["forced_multiplicities"]
            assert got == (want if "witness" in details else {c: n for c, n in want.items() if n})


@pytest.mark.parametrize("field", ["Q", "Fp:1000003"])
def test_inflation_along_a_two_term_image(field):
    """Inflation acts by a combination where a truncation image has two
    terms: with t s = p + q + r through the vertex 3, killing 3 sends p to
    -q - r."""
    f = field_from_name(field)
    arrows = [Arrow(a, "1", "2") for a in "pqr"] + [Arrow("s", "1", "3"), Arrow("t", "3", "2")]
    ts = [[(f.one, ("t", "s"))] + [(f.neg(f.one), (a,)) for a in "pqr"]]
    alg = build_algebra(QuiverPresentation(f, ["1", "2", "3"], arrows, ts, 3))
    quot, tmap = alg.truncate_lower({"3"})
    [p], [q], [r] = (element_by_name(alg, a).coeffs for a in "pqr")
    assert tmap.images[p] == ((tmap.keep.index(q), f.neg(f.one)), (tmap.keep.index(r), f.neg(f.one)))
    P = R.projective(quot, "1")
    M = S.inflate(P, alg, tmap)
    assert check_valid(M)
    assert M.action(q) == P.action(tmap.keep.index(q)) and M.action(r) == P.action(tmap.keep.index(r))
    assert M.action(p) == (M.action(q) + M.action(r)).scale(f.neg(f.one)) and not M.action(p).is_zero()
