import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from oracles import (
    _map_to_element,
    basis_element,
    head,
    job_tilting_rigidity,
    reference_basis_locator,
    reference_decompose,
    reference_extension_middle,
    reference_tilting_rigidity,
    ringel_double_dual_roundtrip,
    unchecked_ringel_dual,
)
from test_based import SWEEP_EXAMPLES

from qstrat import cli
from qstrat import rep as R
from qstrat import strat as S
from qstrat import tilting as TL
from qstrat.algebra import Arrow, QuiverPresentation, build_algebra
from qstrat.examples import get_example, realize
from qstrat.exactla import Matrix, field_from_name

PM = {"1": "+", "2": "-"}
MM = {"1": "-", "2": "-"}
PP = {"1": "+", "2": "+"}


def _signs(spec, pattern):
    labels = sorted(spec.poset.elements)
    return {
        e: {"plus": "+", "minus": "-", "alternating": "+-"[i % 2]}[pattern]
        for i, e in enumerate(labels)
    }


@pytest.fixture(scope="module")
def tilt_B_pm(algB_module):
    B, spec = algB_module
    return TL.tilting_set(B, spec.with_signs(PM))


@pytest.fixture(scope="module")
def algB_module():
    return get_example("B")


class TestTiltingB:
    def test_top_label_structure(self, algB_module, tilt_B_pm):
        B, spec = algB_module
        T1 = tilt_B_pm.module("1")
        assert T1.total_dim() == 6
        assert T1.dims == {"1": 2, "2": 4}
        assert R.is_indecomposable(T1)

    def test_flags_match_display(self, algB_module, tilt_B_pm):
        # the certified flags: one full standard at the bottom with two
        # proper standards above; costandard side refines into two
        # costandards below two proper costandards
        cert_std = tilt_B_pm.std_certs["1"]
        cert_costd = tilt_B_pm.costd_certs["1"]
        assert cert_std.sections == ["1", "2", "2"]
        assert cert_costd.multiplicities() == {"2": 2, "1": 2}

    def test_minus_minus_same_module(self, algB_module, tilt_B_pm):
        B, spec = algB_module
        T1mm, cs, cc = TL.tilting_module(B, spec.with_signs(MM), "1")
        assert R.isomorphism(T1mm, tilt_B_pm.module("1")) is not None
        # at all-minus signs the costandard flag coarsens into full
        # costandards and the standard flag refines completely
        assert cc.multiplicities() == {"2": 2, "1": 1}
        assert cs.multiplicities() == {"1": 2, "2": 2}

    def test_lower_label_is_projective(self, algB_module, tilt_B_pm):
        B, _ = algB_module
        assert R.isomorphism(tilt_B_pm.module("2"), R.projective(B, "2")) is not None

    def test_plus_plus_tiltings_are_projectives(self, algB_module):
        B, spec = algB_module
        tset = TL.tilting_set(B, spec.with_signs(PP))
        assert R.isomorphism(tset.module("1"), R.projective(B, "1")) is not None
        assert R.isomorphism(tset.module("2"), R.projective(B, "2")) is not None

    def test_self_extension_structure(self, algB_module, tilt_B_pm):
        # the big tilting is a non-split self-extension of a three
        # dimensional module
        T1 = tilt_B_pm.module("1")
        X_dims = {"1": 1, "2": 2}
        found = None
        E, hom_bases = R.endomorphism_algebra([T1], ["0"])
        emaps = hom_bases[(0, 0)]
        for k in range(E.dim):
            phi = emaps[k]
            img, _ = R.image_sub(phi)
            ker, _ = R.kernel_sub(phi)
            if img.dim_vector() == X_dims and ker.dim_vector() == X_dims:
                if R.isomorphism(img, ker) is not None:
                    found = phi
                    break
        assert found is not None

    def test_not_tilting_rigid(self, algB_module):
        B, spec = algB_module
        rigid, detail = job_tilting_rigidity(B, spec)
        assert rigid is False
        assert detail == {"1": False, "2": True}

    def test_uniqueness_under_choices(self, algB_module):
        """The climb, which takes the first cocycle, and the reference
        recursion at the second give isomorphic modules over the quotient."""
        B, spec = algB_module
        quot, _ = S.lower_quotient(B, spec, spec.stratum_of["1"])
        T_a = TL._tilt(quot, spec.with_signs(PM), "1")
        T_b = _reference_tilt_in_quotient(B, spec, "1", PM, cocycle_choice=1)
        assert T_a.algebra is T_b.algebra
        assert R.isomorphism(T_a, T_b) is not None

    def test_minimal_stratum_base_case(self, algB_module):
        B, spec = algB_module
        fam = S.standard_family(B, spec.with_signs(PM))
        T2, _, _ = TL.tilting_module(B, spec.with_signs(PM), "2")
        # the lower weight is minimal, with a minus sign: the costandard
        assert R.isomorphism(T2, fam.costandard("2")) is not None

    def test_stratum_image_checked(self, algB_module, tilt_B_pm):
        # tilting_module already re-verified that the stratum image is the
        # stratum projective/injective; re-run it explicitly
        B, spec = algB_module
        TL._check_stratum_image(B, spec.with_signs(PM), "1", tilt_B_pm.module("1"))


class TestTiltingElsewhere:
    def test_semisimple(self):
        K, spec = get_example("kxk")
        tset = TL.tilting_set(K, spec)
        for b in ("1", "2"):
            assert R.isomorphism(tset.module(b), R.simple_rep(K, b)) is not None
        rigid, _ = job_tilting_rigidity(K, spec)
        assert rigid

    def test_qsl2_shifted_projectives(self):
        Q, spec = get_example("qsl2:3")
        tset = TL.tilting_set(Q, spec)
        assert R.isomorphism(tset.module("0"), R.simple_rep(Q, "0")) is not None
        for n in range(1, 4):
            assert R.isomorphism(tset.module(str(n)), R.projective(Q, str(n - 1))) is not None

    def test_qsl2_rigid(self):
        Q, spec = get_example("qsl2:2")
        rigid, _ = job_tilting_rigidity(Q, spec)
        assert rigid

    def test_rigidity_needs_certified_flags(self):
        # the plus and minus tilting modules of A at 2 are isomorphic, but
        # at all-minus signs that module has no standard flag
        A, spec = get_example("A")
        rigid, detail = job_tilting_rigidity(A, spec)
        assert rigid is False and detail == {"1": True, "2": False}
        with pytest.raises(TL.FlagFailed) as err:
            TL.rigid_certificates(A, spec, "2", TL._tilting(A, spec, "2"), TL.tilting_module(A, spec, "2")[1:])
        e = err.value
        assert (e.b, e.signs, e.failure.flavor) == ("2", {"1": "-", "2": "-"}, "standard")
        assert e.failure.peeled == ["2", "1", "1"]

    def test_gl11_window_stays_rigid(self):
        G, spec = get_example("gl11:-1:2")
        rigid, detail = job_tilting_rigidity(G, spec)
        assert rigid and detail == {"-1": True, "0": True, "1": True, "2": True}

    def test_gl11_window(self):
        G, spec = get_example("gl11:-1:1")
        tset = TL.tilting_set(G, spec)
        assert R.isomorphism(tset.module("0"), R.projective(G, "-1")) is not None
        assert R.isomorphism(tset.module("-1"), R.simple_rep(G, "-1")) is not None

    def test_dual_of_tilting_is_opposite_tilting(self, algB_module):
        # duals over the opposite algebra with negated signs are again the
        # indecomposable tiltings
        B, spec = algB_module
        T1, _, _ = TL.tilting_module(B, spec.with_signs(PM), "1")
        opp_spec = S.StratSpec(spec.poset, dict(spec.stratum_of), {"1": "-", "2": "+"})
        T1_op, _, _ = TL.tilting_module(B.opposite(), opp_spec, "1")
        assert R.isomorphism(R.dual(T1), T1_op) is not None


@pytest.fixture(scope="module")
def rdB(algB_module):
    B, spec = algB_module
    return TL.ringel_dual(B, spec.with_signs(PM))


@pytest.mark.parametrize("field", ["Q", "Fp:1000003"])
@pytest.mark.parametrize("pattern", ["+", "-", "+-", "-+"])
@pytest.mark.parametrize("name", SWEEP_EXAMPLES)
def test_rigidity_matches_the_reference_on_examples(name, pattern, field):
    """Rigidity read off the job's own tilting modules gives the verdict,
    label by label, of the reference that climbs the all-plus and
    all-minus tilting modules and compares them."""
    alg, spec = get_example(name, field_from_name(field))
    signed = spec.with_signs({e: pattern[i % len(pattern)] for i, e in enumerate(spec.poset.elements)})
    assert job_tilting_rigidity(alg, signed) == reference_tilting_rigidity(alg, signed)


@pytest.mark.parametrize("pattern", ["+", "+-", "-"])
def test_rigidity_matches_the_reference_on_the_loop_ladder(pattern):
    """The loop ladder [0, 2], whose stratum algebras k[z]/(z^2) make the
    signs select different modules."""
    family = json.loads((Path(__file__).parent / "loop_ladder.json").read_text())["family"]
    alg, spec = realize(family, 0, 2, field_from_name(family["field"]), None)
    signed = spec.with_signs({e: pattern[i % len(pattern)] for i, e in enumerate(spec.poset.elements)})
    assert job_tilting_rigidity(alg, signed) == reference_tilting_rigidity(alg, signed)


@pytest.mark.parametrize(
    "argv, want",
    [
        (["tilting", "examples:qsl2:3"], {"certify_tilting": 8, "is_indecomposable": 8}),
        (["tilting", "examples:qsl2:3", "--eps=0=-,1=-,2=-,3=-"], {"certify_tilting": 8, "is_indecomposable": 8}),
        (["tilting", "examples:qsl2:3", "--eps=0=+,1=-,2=+,3=-"], {"certify_tilting": 12, "is_indecomposable": 12}),
        (["cellular", "examples:qsl2:3", "--flavor", "BS"], {"certify_tilting": 8, "certify_flag": 23}),
    ],
)
def test_rigidity_reads_the_job_sign_certificates(argv, want, monkeypatch):
    """Where the job's signs are all plus or all minus, rigidity reads the
    job's own certificate pair for that extreme: one certify_tilting per
    label at the job's signs and one at the other extreme.  At mixed signs
    each label is certified three times.  The cellular count of
    certify_flag includes cell_verify's section flags.  is_indecomposable
    is counted where the tilting layer calls it, not within rep."""
    owners = {"certify_tilting": TL, "certify_flag": S, "is_indecomposable": R}
    calls = dict.fromkeys(want, 0)
    for name in want:
        real = getattr(owners[name], name)

        def counted(*args, _real=real, _name=name):
            if sys._getframe(1).f_globals is not vars(R):
                calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(owners[name], name, counted)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    assert calls == want


@pytest.mark.parametrize("field", ["Q", "Fp:1000003"])
def test_radical_filtration_multiplies_into_each_power(field):
    """k[x]/(x^3) has rad^2 = (x^2), not zero, so the filtration multiplies
    the radical into each power: dimensions 3, 2, 1 and 0."""
    F = field_from_name(field)
    cube = build_algebra(QuiverPresentation(F, ["1"], [Arrow("x", "1", "1")], [[(F.one, ("x", "x", "x"))]], 4))
    assert TL._radical_filtration_dims(cube) == [3, 2, 1, 0]


class TestRingelDuality:

    def test_dual_dimension_and_grading(self, rdB):
        assert rdB.dual_algebra.dim == 14
        assert rdB.dual_algebra.graded_dims() == {
            ("1", "1"): 6,
            ("1", "2"): 2,
            ("2", "1"): 4,
            ("2", "2"): 2,
        }

    def test_dual_spec_reversed_negated(self, rdB, algB_module):
        _, spec = algB_module
        assert rdB.dual_spec.poset.leq("1", "2")
        assert rdB.dual_spec.signs == {"1": "-", "2": "+"}

    def test_dual_is_stratified(self, rdB):
        assert S.check_stratified(rdB.dual_algebra, rdB.dual_spec).ok

    def test_verify_ringel_full(self, rdB):
        rep = TL.verify_ringel(rdB)
        assert rep.ok
        assert rep.data["dual_dim"] == 14

    def test_image_functor_isos(self, rdB, algB_module):
        B, spec = algB_module
        fam = S.standard_family(B, spec.with_signs(PM))
        dual_fam = S.standard_family(rdB.dual_algebra, rdB.dual_spec)
        F1 = TL.ringel_image(rdB, fam.signed_costandard("1"))
        assert R.isomorphism(F1, dual_fam.signed_standard("1")) is not None
        FI2 = TL.ringel_image(rdB, R.injective(B, "2"))
        dual_tset = TL.tilting_set(rdB.dual_algebra, rdB.dual_spec)
        assert R.isomorphism(FI2, dual_tset.module("2")) is not None

    def test_image_of_zero(self, rdB):
        z = TL.ringel_image(rdB, R.zero_rep(rdB.source_algebra))
        assert z.is_zero()

    def test_quiver_presentation_of_dual(self, rdB, algA):
        # generators built from the tilting modules: a loop endomorphism of
        # the big tilting with image and kernel its self-extension middle
        # term X, an embedding of the small tilting meeting that loop
        # nontrivially, and the rank-one map back that annihilates it; these
        # satisfy the defining relations of the expected quiver algebra and
        # generate the whole dual
        from qstrat.exactla import span_rref, vector_in_span

        A, _ = algA
        dual = rdB.dual_algebra
        assert dual.graded_dims() == A.graded_dims()
        T1 = rdB.tilt.module("1")
        T2 = rdB.tilt.module("2")
        X_dims = {"1": 1, "2": 2}
        emaps = R.endomorphism_algebra([T1], ["0"])[1][(0, 0)]
        z_map = next(
            phi
            for phi in emaps
            if R.image_sub(phi)[0].dim_vector() == X_dims
            and R.kernel_sub(phi)[0].dim_vector() == X_dims
        )
        u_map = next(
            phi
            for phi in R.hom_space(T2, T1)
            if phi.rank() == phi.source.total_dim() and not z_map.compose(phi).is_zero()
        )
        # v spans the solution space of v . u = 0 inside Hom(T1, T2)
        f = dual.field
        vs = R.hom_space(T1, T2)
        rows = []
        for cand in vs:
            comp = cand.compose(u_map)
            vec = []
            for vx in T1.algebra.vertices:
                for row in comp.mats[vx].rows:
                    vec.extend(row)
            rows.append(vec)
        ker = Matrix(f, rows, len(rows[0])).transpose().kernel()
        assert ker.ncols == 1
        v_map = None
        for c, cand in zip(ker.column(0), vs):
            term = cand.scale(c)
            v_map = term if v_map is None else v_map + term
        assert v_map.rank() == 1
        z = _map_to_element(rdB, "1", "1", z_map)
        u = _map_to_element(rdB, "2", "1", u_map)
        v = _map_to_element(rdB, "1", "2", v_map)
        assert (z * z).is_zero()
        assert (u * v).is_zero()
        assert (v * u * z * v).is_zero()
        assert not (v * u).is_zero()
        assert not (u * z).is_zero()
        assert not (z * v).is_zero()
        assert not (u * z * v * u * z).is_zero()
        span = [dual.idempotent("1").dense(), dual.idempotent("2").dense()]
        frontier = [dual.idempotent("1"), dual.idempotent("2")]
        while True:
            new = []
            for x in frontier:
                for g in (z, u, v):
                    for prod in (x * g, g * x):
                        if prod.is_zero():
                            continue
                        if not vector_in_span(span_rref(f, span, dual.dim), prod.dense()):
                            span.append(prod.dense())
                            new.append(prod)
            if not new:
                break
            frontier = new
        assert len(span) == dual.dim
        # evaluating every basis word of the source algebra on the
        # dictionary yields 14 independent elements: since the relations
        # hold, this is an explicit algebra isomorphism
        gens = {"z": z, "u": u, "v": v}
        images = []
        for belem in A.basis:
            if belem.word == ():
                img = dual.idempotent(belem.src)
            else:
                img = None
                for name in belem.word:
                    img = gens[name] if img is None else img * gens[name]
            images.append(img.dense())
        rank = sum(
            1
            for row in span_rref(f, images, dual.dim).rows
            if any(not f.is_zero(x) for x in row)
        )
        assert rank == 14

    def test_double_dual_roundtrip(self, algB_module):
        B, spec = algB_module
        rep = ringel_double_dual_roundtrip(B, spec.with_signs(PM))
        assert rep.ok

    def test_semisimple_self_dual(self):
        K, spec = get_example("kxk")
        rd = TL.ringel_dual(K, spec)
        assert rd.dual_algebra.dim == K.dim
        assert TL.verify_ringel(rd).ok

    def test_qsl2_extra_relation(self):
        Q, spec = get_example("qsl2:3")
        rd = TL.ringel_dual(Q, spec)
        dual = rd.dual_algebra
        locator = {v: k for k, v in reference_basis_locator(rd).items()}
        up = basis_element(dual, locator[(0, 1, 0)])
        down = basis_element(dual, locator[(1, 0, 0)])
        # composite through the simple tilting vanishes; the reverse
        # composite survives
        assert (up * down).is_zero()
        assert not (down * up).is_zero()
        # the analogous composites through higher tiltings are nonzero and
        # proportional to the opposite loops (commutation persists)
        up1 = basis_element(dual, locator[(1, 2, 0)])
        down1 = basis_element(dual, locator[(2, 1, 0)])
        assert not (up1 * down1).is_zero()


def _pairwise_ext_transfer(rd, ext_bound):
    """The ext_transfer checks computed pair by pair, with a fresh image
    and a fresh resolution for every pair: the reference for the
    per-label reuse in verify_ringel."""
    alg, spec = rd.source_algebra, rd.source_spec
    fam = S.standard_family(alg, spec)
    out = []
    for b in rd.names:
        for c in rd.names:
            costd_b, image_b = fam.signed_costandard(b), TL.ringel_image(rd, fam.signed_costandard(b))
            lhs = R.ext_dims(R.Resolution(costd_b, ext_bound + 1), fam.signed_costandard(c), ext_bound)
            rhs = R.ext_dims(R.Resolution(image_b, ext_bound + 1), TL.ringel_image(rd, fam.signed_costandard(c)), ext_bound)
            out.append((f"ext_transfer[{b},{c}]", lhs == rhs, {"source": lhs, "dual": rhs}))
    return out


class TestVerifyRingelReuse:
    @pytest.mark.parametrize("field", ["Q", "Fp:1000003"])
    @pytest.mark.parametrize("name", ["B", "semiinf:3", "gl11:-1:2"])
    def test_ext_transfer_matches_pairwise_reference(self, name, field, monkeypatch):
        alg, spec = get_example(name, field_from_name(field))
        labels = sorted(spec.poset.elements)
        signs = {e: "+-"[i % 2] for i, e in enumerate(labels)}
        rd = TL.ringel_dual(alg, spec.with_signs(signs))
        built = []

        class CountedResolution(R.Resolution):
            def __init__(self, rep, max_len):
                built.append(rep)
                super().__init__(rep, max_len)

        monkeypatch.setattr(R, "Resolution", CountedResolution)
        rep = TL.verify_ringel(rd)
        monkeypatch.undo()
        assert rep.ok
        assert len(built) == 2 * len(rd.names)
        got = [(c.name, c.ok, c.details) for c in rep.checks if c.name.startswith("ext_transfer[")]
        assert got == _pairwise_ext_transfer(rd, 2)


class _ReferenceContext:
    """The earlier per-call tilting context: corners and standard families
    looked up per vertex set, and every tilting module of the recursion
    memoized by (vertex set, label)."""

    def __init__(self, algebra, spec, signs):
        self.algebra = algebra
        self.spec = spec
        self.signs = dict(signs)
        self.families = {}
        self.tilts = {}

    def corner(self, verts):
        verts = frozenset(verts)
        sub = self.algebra
        if verts != frozenset(sub.vertices):
            sub = sub.truncate_upper(verts)
        stratum_of = {v: self.spec.stratum_of[v] for v in verts}
        return sub, S.StratSpec(self.spec.poset, stratum_of, self.signs)

    def family(self, verts):
        key = frozenset(verts)
        if key not in self.families:
            sub, spec = self.corner(verts)
            self.families[key] = S.standard_family(sub, spec)
        return self.families[key]


def _reference_tilt(ctx, verts, b, cocycle_choice):
    """The earlier recursive universal-extension construction, kept as the
    reference for the loop in tilting._tilt."""
    key = (verts, b)
    if key in ctx.tilts:
        return ctx.tilts[key]
    sub, spec = ctx.corner(verts)
    signs = ctx.signs
    strata = {spec.stratum_of[v] for v in verts}
    lam = spec.stratum_of[b]
    if len(strata) == 1:
        fam = ctx.family(verts)
        T = fam.standard(b) if signs[lam] == "+" else fam.costandard(b)
        ctx.tilts[key] = T
        return T
    mu = sorted(m for m in spec.poset.minimal(strata) if m != lam)[0]
    upper_verts = frozenset(v for v in verts if spec.stratum_of[v] != mu)
    T_up = _reference_tilt(ctx, upper_verts, b, cocycle_choice)
    upper_alg, _ = ctx.corner(upper_verts)
    if signs[mu] == "+":
        T = S.induce_from_corner(sub, upper_alg, T_up)
    else:
        T = S.coinduce_from_corner(sub, upper_alg, T_up)
    fam = ctx.family(verts)
    fiber = sorted(spec.fiber(mu))

    def ends(c, T):
        return (fam.standard(c), T) if signs[mu] == "+" else (T, fam.costandard(c))

    prev = None
    while True:
        obstructions = {c: R.ext1_with_cocycles(m, n, R.syzygy(m)) for c in fiber for m, n in [ends(c, T)]}
        total = sum(d for d, _, _ in obstructions.values())
        if total == 0:
            break
        assert prev is None or total < prev
        prev = total
        c = next(c for c in fiber if obstructions[c][0] > 0)
        _, cocycles, context = obstructions[c]
        pick = cocycles[min(cocycle_choice, len(cocycles) - 1)]
        T, _, _, split = reference_extension_middle(*ends(c, T), pick, context)
        assert not split
    top = set(spec.fiber(lam))
    parts = reference_decompose(T)
    hits = [p for p, mult in parts for _ in range(mult) if any(p.dims[v] for v in top)]
    assert len(hits) == 1
    ctx.tilts[key] = hits[0]
    return hits[0]


def _reference_tilt_in_quotient(algebra, spec, b, signs, cocycle_choice):
    quot, _ = S.lower_quotient(algebra, spec, spec.stratum_of[b])
    sub_spec = S.StratSpec(spec.poset, {v: spec.stratum_of[v] for v in quot.vertices}, signs)
    ctx = _ReferenceContext(quot, sub_spec, signs)
    return _reference_tilt(ctx, frozenset(quot.vertices), b, cocycle_choice)


class TestTiltLoopMatchesRecursion:
    """The tilting loop gives exactly the modules of the earlier recursive
    construction with its per-call context: same dims, same action."""

    @pytest.mark.parametrize("field", ["Q", "Fp:1000003"])
    @pytest.mark.parametrize("pattern", ["plus", "alternating", "minus"])
    @pytest.mark.parametrize("name", ["A", "B", "semiinf:3", "qsl2:3", "gl11:-1:2", "dzig:-1:2"])
    def test_same_modules(self, name, pattern, field):
        F = field_from_name(field)
        # separate instances; the reference keeps its own tilting memo
        alg, spec = get_example(name, F)
        ref_alg, ref_spec = get_example(name, F)
        signs = _signs(spec, pattern)
        for b in sorted(alg.vertices):
            quot, _ = S.lower_quotient(alg, spec, spec.stratum_of[b])
            T = TL._tilt(quot, spec.with_signs(signs), b)
            want = _reference_tilt_in_quotient(ref_alg, ref_spec, b, signs, cocycle_choice=0)
            assert T.dims == want.dims
            assert T.act == want.act


def _cert_data(cert):
    if isinstance(cert, S.FlagCertificate):
        return ("certificate", cert.flavor, cert.sections, cert.witnesses)
    return ("failure", cert.flavor, cert.peeled, cert.stuck.dims, cert.stuck.act)


class TestTiltingSetCertificates:
    """A tilting set certifies each flag of each module once, as
    tilting_module does, with the result of an eager certify_flag."""

    @pytest.mark.parametrize("field", ["Q", "Fp:1000003"])
    @pytest.mark.parametrize("pattern", ["plus", "alternating", "minus"])
    @pytest.mark.parametrize("name", ["B", "semiinf:3", "qsl2:3", "gl11:-1:2"])
    def test_same_as_eager(self, name, pattern, field, monkeypatch):
        alg, spec = get_example(name, field_from_name(field))
        signs = _signs(spec, pattern)
        calls = []
        certify = S.certify_flag

        def counted(module, family, flavor):
            calls.append(flavor)
            return certify(module, family, flavor)

        monkeypatch.setattr(S, "certify_flag", counted)
        tset = TL.tilting_set(alg, spec.with_signs(signs))
        assert calls == ["standard", "costandard"] * len(alg.vertices)
        assert sorted(tset.std_certs) == sorted(alg.vertices) == sorted(tset.costd_certs)
        fam = S.standard_family(alg, spec.with_signs(signs))
        for b in sorted(alg.vertices):
            T = tset.module(b)
            for flavor, certs in (("standard", tset.std_certs), ("costandard", tset.costd_certs)):
                assert _cert_data(certs[b]) == _cert_data(certify(T, fam, flavor))
        assert len(calls) == 2 * len(alg.vertices)


def _reference_find_epi(module, target):
    """The earlier search: a head test before every rank test."""
    if target.is_zero():
        return None
    homs = R.hom_space(module, target)
    if not homs:
        return None
    _, head_proj = head(target)
    for phi in homs:
        if not head_proj.compose(phi).is_zero() and phi.is_surjective():
            return phi
    return None


class TestFlagPeelSearch:
    """The Hom-basis search of the flag peel returns the same map as the
    earlier search that tested the head first.  Costandard flags peel the
    dual module, so the search also meets the duals of the costandards."""

    @pytest.mark.parametrize("field", ["Q", "Fp:1000003"])
    @pytest.mark.parametrize("name", ["A", "B", "semiinf:3", "qsl2:3", "gl11:-1:2"])
    def test_same_map_as_reference(self, name, field, monkeypatch):
        alg, spec = get_example(name, field_from_name(field))
        seen = []
        find_epi = S._find_epi

        def epi(module, target):
            got = find_epi(module, target)
            seen.append((got is not None, module.algebra is alg))
            assert got == _reference_find_epi(module, target)
            return got

        monkeypatch.setattr(S, "_find_epi", epi)
        for pattern in ("plus", "alternating", "minus"):
            signs = _signs(spec, pattern)
            view = spec.with_signs(signs)
            S.check_stratified(alg, view, with_ext=False)
            fam = S.standard_family(alg, view)
            for b in sorted(alg.vertices):
                # unchecked: on A some of these signs fail the tilting flags
                T = TL._tilting(alg, view, b)
                S.certify_flag(T, fam, "standard"), S.certify_flag(T, fam, "costandard")
                for c in sorted(alg.vertices):
                    S._find_epi(R.projective(alg, b), fam.signed_standard(c))
        # both outcomes occur: maps found, and none to find; the
        # costandard flags searched over the opposite algebra
        assert {found for found, _ in seen} == {True, False}
        assert {here for _, here in seen} == {True, False}


FIELDS = ["Q", "Fp:1000003"]
BUILT_IN = ["A", "B", "kxk", "point", "semiinf:3", "qsl2:3", "gl11:-1:2", "dzig:-1:2"]


def _bumped(m, k):
    """A copy of m whose action of basis element k has its first entry
    raised by one."""
    f = m.algebra.field
    rows = [list(r) for r in m.action(k).rows]
    rows[0][0] = f.add(rows[0][0], f.one)
    return R.Rep(m.algebra, m.dims, {**m.act, k: Matrix(f, rows, len(rows[0]))})


def _failed(rep):
    return {c.name: c.details for c in rep.checks if not c.ok}


class TestRingelCertificates:
    """verify_ringel reads F(T(b)) = P'(b) and G(T(b)) = I'(b) as equalities
    and F(I(b)) = T'(b) from certify_tilting, with no climb on the dual."""

    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize(
        "functor, check", [("ringel_image", "F_tilting_is_projective"), ("ringel_coimage", "G_tilting_is_injective")]
    )
    def test_a_changed_entry_fails_the_equality_with_its_witness(self, functor, check, field, monkeypatch):
        alg, spec = get_example("B", field_from_name(field))
        rd = TL.ringel_dual(alg, spec.with_signs(PM))
        # F(T(b)) is P'(b) and G(T(b)) is I'(b) matrix for matrix, so the
        # bumped image is a copy of P'(b) (I'(b)) with one entry changed
        b = "1"
        real = getattr(TL, functor)
        got = real(rd, rd.tilt.module(b))
        k = max(got.act)
        monkeypatch.setattr(
            TL, functor, lambda rd_, v: _bumped(real(rd_, v), k) if v is rd.tilt.module(b) else real(rd_, v)
        )
        failed = _failed(TL.verify_ringel(rd))
        assert failed == {f"{check}[{b}]": {"differs_at": rd.dual_algebra.basis[k].name}}

    @pytest.mark.parametrize("field", FIELDS)
    def test_a_changed_dimension_vector_fails_the_equality(self, field, monkeypatch):
        alg, spec = get_example("B", field_from_name(field))
        rd = TL.ringel_dual(alg, spec.with_signs(PM))
        real = TL.ringel_image
        P2 = R.projective(rd.dual_algebra, "2")
        monkeypatch.setattr(TL, "ringel_image", lambda rd_, v: P2 if v is rd.tilt.module("1") else real(rd_, v))
        failed = _failed(TL.verify_ringel(rd))
        P1 = R.projective(rd.dual_algebra, "1")
        assert failed == {"F_tilting_is_projective[1]": {"dims": P2.dims, "want_dims": P1.dims}}

    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize("name", ["B", "semiinf:3", "qsl2:3", "gl11:-1:2"])
    def test_injectives_and_sums_with_a_simple_fail_the_certificate(self, name, field):
        alg, spec = get_example(name, field_from_name(field))
        rd = TL.ringel_dual(alg, spec.with_signs(_signs(spec, "alternating")))
        dual, dual_spec = rd.dual_algebra, rd.dual_spec
        not_tilting = 0
        for b in rd.names:
            FI = TL.ringel_image(rd, R.injective(alg, b))
            TL.certify_tilting(dual, dual_spec, b, FI)
            for c in rd.names:
                plus_simple = R.direct_sum([FI, R.simple_rep(dual, c)])
                with pytest.raises(TL.TiltingError):
                    TL.certify_tilting(dual, dual_spec, b, plus_simple)
            I = R.injective(dual, b)
            if R.isomorphism(I, FI) is None:
                not_tilting += 1
                with pytest.raises(TL.TiltingError):
                    TL.certify_tilting(dual, dual_spec, b, I)
        assert not_tilting

    @pytest.mark.parametrize("field", FIELDS)
    def test_a_failed_F_injective_leaves_G_projective_its_own_certificate(self, field, monkeypatch):
        alg, spec = get_example("B", field_from_name(field))
        rd = TL.ringel_dual(alg, spec.with_signs(PM))
        dual = rd.dual_algebra
        Is = {b: R.injective(alg, b) for b in rd.names}
        # the label whose dual injective is not the dual's tilting module
        b = next(
            b for b in rd.names
            if R.isomorphism(R.injective(dual, b), TL.ringel_image(rd, Is[b])) is None
        )
        made, injective, image = [], R.injective, TL.ringel_image

        def recorded(algebra, vertex):
            got = injective(algebra, vertex)
            if algebra is alg and vertex == b:
                made.append(got)
            return got

        monkeypatch.setattr(R, "injective", recorded)
        monkeypatch.setattr(
            TL, "ringel_image",
            lambda rd_, v: injective(dual, b) if any(v is m for m in made) else image(rd_, v),
        )
        failed = _failed(TL.verify_ringel(rd))
        # G(P(b)) certifies on its own; End(sum of F(I)) lost a dimension
        assert set(failed) == {f"F_injective_is_dual_tilting[{b}]", "double_centralizer_dim"}
        assert failed[f"F_injective_is_dual_tilting[{b}]"]["error"]

    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize("pattern", ["plus", "alternating", "minus"])
    @pytest.mark.parametrize("name", BUILT_IN)
    def test_certified_F_injective_is_the_climbed_dual_tilting(self, name, pattern, field):
        alg, spec = get_example(name, field_from_name(field))
        # unchecked: on A some of these signs fail the tilting flags
        rd = unchecked_ringel_dual(alg, spec.with_signs(_signs(spec, pattern)))
        dual, dual_spec = rd.dual_algebra, rd.dual_spec
        certified = 0
        for b in rd.names:
            FI = TL.ringel_image(rd, R.injective(alg, b))
            try:
                TL.certify_tilting(dual, dual_spec, b, FI)
            except TL.TiltingError:
                continue
            certified += 1
            assert R.isomorphism(FI, TL._tilting(dual, dual_spec, b)) is not None
        assert certified == len(rd.names) or name == "A"


class TestTower:
    def test_semiinf_windows(self):
        rep = TL.truncation_tower(lambda w: get_example(f"semiinf:{w}"), [2, 3, 4], tilt_labels=("0",))
        assert rep.ok
        w2 = rep.data["windows"]["2"]
        assert w2["standard_vectors"]["0"] == {"0": 1, "1": 1}
        assert w2["standard_vectors"]["1"] == {"1": 1, "2": 1}
        assert w2["tilting_multiplicities"]["0"] == {"0": 1, "1": 1, "2": 1}

    def test_constant_family(self):
        rep = TL.truncation_tower(lambda w: get_example("B"), [1, 2], tilt_labels=("1",))
        assert rep.ok

    def test_two_sided_window(self):
        rep = TL.truncation_tower(
            lambda w: get_example(f"dzig:{-w}:{w}"), [1, 2], tilt_labels=("0",)
        )
        assert rep.ok
        # the big tilting at the top label grows one weight layer per
        # window: one copy at the top, two at every positive weight below
        for w in (1, 2):
            dims = rep.data["windows"][str(w)]["tilting_dims"]["0"]
            assert dims == {"0": 1, **{str(i): 2 for i in range(1, w + 1)}}
            mults = rep.data["windows"][str(w)]["tilting_multiplicities"]["0"]
            assert mults == {str(i): 1 for i in range(0, w + 1)}

    def test_window_too_small(self):
        with pytest.raises(TL.WindowError):
            TL.truncation_tower(lambda w: get_example(f"semiinf:{w}"), [2, 3], tilt_labels=("9",))

    @pytest.mark.parametrize("windows", [[3, 2], [3, 3], [2, 3, 3]])
    def test_windows_must_increase(self, windows):
        with pytest.raises(TL.TiltingError, match="strictly increasing"):
            TL.truncation_tower(lambda w: get_example(f"semiinf:{w}"), windows, tilt_labels=("0",))


@pytest.mark.parametrize("name", ["semiinf:5", "qsl2:5", "gl11:-2:3"])
def test_corner_spec_follows_the_vertex_order(name):
    """The corner spec's stratum_of lists the corner algebra's vertices in
    its order, whatever order the vertex set iterates in, so nothing keyed
    on the spec follows PYTHONHASHSEED."""
    algebra, spec = get_example(name)
    verts = list(algebra.vertices)
    for mask in range(1, 1 << len(verts)):
        chosen = frozenset(v for i, v in enumerate(verts) if mask >> i & 1)
        sub, sub_spec = TL._corner(algebra, spec, chosen)
        assert list(sub_spec.stratum_of) == list(sub.vertices) == [v for v in verts if v in chosen]
