"""Signed tilting modules, Ringel duality, and truncation towers.

The indecomposable signed tilting module at a label is built by the
recursive universal-extension procedure: start from the standard (or
costandard) module at the bottom stratum of the relevant lower set, induce
through corner quotients one stratum at a time, and kill the extension
obstructions against the standard (costandard) modules of the newly added
stratum by iterated non-split extensions, which terminate because the
obstruction dimension drops strictly.  The Ringel dual is the opposite
endomorphism algebra of the direct sum of the tilting modules.
"""

from __future__ import annotations

from . import rep as R
from . import strat as S
from .exactla import Matrix, span_rref
from .report import Report


class TiltingError(ValueError):
    pass


class NonTermination(TiltingError):
    """The extension obstruction failed to drop; input or engine fault."""


class FlagFailed(TiltingError):
    """The tilting module at b failed to certify one of its flags under
    the signs; the FlagFailure is the witness."""

    def __init__(self, b, failure, signs):
        super().__init__(f"tilting module at {b} failed flag certification")
        self.b, self.failure, self.signs = b, failure, dict(signs)


def tilting_module(algebra, spec, b):
    """The indecomposable tilting module at a label, under spec's signs.

    Returns (module, standard-flag certificate, costandard-flag
    certificate), after re-verifying the defining properties with
    certify_tilting.
    """
    b = str(b)
    T = _tilting(algebra, spec, b)
    return (T, *certify_tilting(algebra, spec, b, T))


def certify_tilting(algebra, spec, b, T):
    """Certify T as the tilting module at b under spec's signs by Ringel's
    characterization: both signed flags certify, the standard flag's bottom
    section and the costandard flag's top section are b, T is
    indecomposable, and its image in the stratum of b is the stratum
    projective (sign +) or injective (sign -).  Returns the standard- and
    costandard-flag certificates; raises FlagFailed or TiltingError."""
    fam = S.standard_family(algebra, spec)
    std_cert = S.certify_flag(T, fam, "standard")
    costd_cert = S.certify_flag(T, fam, "costandard")
    for cert in (std_cert, costd_cert):
        if not cert:
            raise FlagFailed(b, cert, spec.signs)
    if std_cert.sections[0] != b:
        raise TiltingError(f"standard flag of tilting at {b} has wrong bottom section")
    if costd_cert.sections[-1] != b:
        raise TiltingError(f"costandard flag of tilting at {b} has wrong top section")
    if not R.is_indecomposable(T):
        raise TiltingError(f"tilting module at {b} is decomposable")
    _check_stratum_image(algebra, spec, b, T)
    return std_cert, costd_cert


def _tilting(algebra, spec, b):
    """The tilting module at b, unchecked: built over the lower quotient at
    its stratum (tilting modules are insensitive to passing there) and
    inflated."""
    spec.validate(algebra)
    quot, tmap = S.lower_quotient(algebra, spec, spec.stratum_of[b])
    return S.inflate(_tilt(quot, spec, b), algebra, tmap)


def _check_stratum_image(algebra, spec, b, T):
    lam = spec.stratum_of[b]
    stratum = S.stratum_algebra(algebra, spec, lam)
    # T lives over the lower quotient at lam: its stratum image is the
    # restriction along the stratum's positions in the source algebra
    quot, tmap = S.lower_quotient(algebra, spec, lam)
    img = S.restrict(T, stratum, [tmap.keep[k] for k in quot.corner_positions(stratum.vertices)])
    want = (
        R.projective(stratum, b) if spec.signs[lam] == "+" else R.injective(stratum, b)
    )
    if R.isomorphism(img, want) is None:
        raise TiltingError(f"stratum image of tilting at {b} is wrong")


def _corner(algebra, spec, verts):
    """The corner algebra on a vertex set (the algebra memoizes it), with
    the spec restricted to it."""
    sub = algebra.truncate_upper(verts)
    return sub, S.StratSpec(spec.poset, {v: spec.stratum_of[v] for v in sub.vertices}, spec.signs)


def _tilt(quot, spec, b):
    """The tilting module at b over the lower quotient at its stratum.

    Peel off a minimal stratum other than b's until one stratum is left,
    start there from the standard (sign +) or costandard (sign -) module,
    then climb back: (co)induce to the next larger corner, kill Ext^1
    against the peeled stratum, and keep the summand meeting b's stratum.
    Each corner memoizes the module its step gives, under its signed
    strat_key and b, which fix the climb below it; a climb starts at the
    largest corner of its chain that has one.  So the windows of a family
    whose smaller windows are corners of the larger ones climb only the
    steps above the window below.
    """
    lam = spec.stratum_of[b]
    chain = [frozenset(quot.vertices)]  # vertex sets, largest first
    peeled = []  # peeled[i]: the stratum chain[i] has and chain[i + 1] lacks
    while len(strata := {spec.stratum_of[v] for v in chain[-1]}) > 1:
        mu = min(m for m in spec.poset.minimal(strata) if m != lam)
        peeled.append(mu)
        chain.append(frozenset(v for v in chain[-1] if spec.stratum_of[v] != mu))
    corners = []  # (corner, its spec, memo key), largest first, down to the first with T(b)
    for verts in chain:
        sub, sub_spec = _corner(quot, spec, verts)
        key = (S.strat_key(sub_spec, signed=True), b)
        corners.append((sub, sub_spec, key))
        if key in sub._tilts:
            break
    else:  # none has it: start from the one-stratum corner
        fam = S.standard_family(sub, sub_spec)
        sub._tilts[key] = fam.standard(b) if spec.signs[lam] == "+" else fam.costandard(b)
    up, T = sub, sub._tilts[key]
    for i in range(len(corners) - 2, -1, -1):
        sub, sub_spec, key = corners[i]
        induce = S.induce_from_corner if spec.signs[peeled[i]] == "+" else S.coinduce_from_corner
        T = induce(sub, up, T)
        T = _extension_loop(sub, sub_spec, peeled[i], T)
        T = _select_summand(sub_spec, b, T)
        sub._tilts[key] = T
        up = sub
    return T


def _extension_loop(sub, spec, mu, T0):
    """Kill Ext^1 against the fiber of mu by iterated non-split extensions:
    Ext^1(standard, T) under sign +, Ext^1(T, costandard) under sign -,
    each by the first cocycle, presenting each standard once per loop and
    T once per step."""
    fam = S.standard_family(sub, spec)
    fiber = spec.fiber(mu)
    plus = spec.signs[mu] == "+"
    presented = {c: R.syzygy(fam.standard(c)) for c in fiber} if plus else None

    def ends(c, T):
        return (fam.standard(c), T) if plus else (T, fam.costandard(c))

    T = T0
    prev = None
    while True:
        if not plus:
            presented = dict.fromkeys(fiber, R.syzygy(T))
        obstructions = {c: R.ext1_with_cocycles(*ends(c, T), presented[c]) for c in fiber}
        total = sum(d for d, _, _ in obstructions.values())
        if total == 0:
            return T
        if prev is not None and total >= prev:
            raise NonTermination("extension obstruction did not drop")
        prev = total
        c = next(c for c in fiber if obstructions[c][0] > 0)
        _, cocycles, context = obstructions[c]
        T, split = R.extension_middle(*ends(c, T), cocycles[0], context)
        if split:
            raise NonTermination("chosen extension class split")


def _select_summand(spec, b, T):
    """The summand whose image in the top stratum of b is nonzero."""
    fiber = set(spec.fiber(spec.stratum_of[b]))
    hits = [p for p in R.decompose(T) if any(p.dims[v] for v in fiber)]
    if len(hits) != 1:
        raise TiltingError(
            f"expected exactly one summand meeting the top stratum, got {len(hits)}"
        )
    return hits[0]


class TiltingSet:
    """All indecomposable tilting modules over one algebra, under its
    spec's signs, with their flag certificates by label."""

    def __init__(self, algebra, spec, modules, std_certs, costd_certs):
        self.algebra = algebra
        self.spec = spec
        self.modules = modules
        self.std_certs = std_certs
        self.costd_certs = costd_certs

    def module(self, b):
        return self.modules[str(b)]

    def parts(self):
        names = sorted(self.modules)
        return names, [self.modules[n] for n in names]


def tilting_set(algebra, spec):
    """The certified tilting module at every label (see tilting_module)."""
    modules, stds, costds = {}, {}, {}
    for b in sorted(algebra.vertices):
        modules[b], stds[b], costds[b] = tilting_module(algebra, spec, b)
    return TiltingSet(algebra, spec, modules, stds, costds)


def rigid_certificates(algebra, spec, b, T, certs):
    """Certify T, the tilting module at b under spec's signs, as the
    tilting module at b under all-plus and under all-minus signs: the
    (standard, costandard) certificate pairs, all-plus first, or FlagFailed
    or TiltingError.  certs is T's pair under spec's signs, or the
    FlagFailed its certification raised; the extreme whose signs are
    spec's reads it instead of certifying T again.  In a fully stratified
    category both succeed exactly when b is tilting-rigid, T_+(b) = T_-(b):
    then T is both, each unique up to isomorphism; conversely T_+(b)
    carries a standard and a costandard flag, which refine to proper ones,
    so it has every sign function's flags and is T(b) under spec's signs
    too."""
    out = []
    for s in "+-":
        if any(spec.signs[e] != s for e in spec.poset.elements):
            out.append(certify_tilting(algebra, spec.with_signs(dict.fromkeys(spec.poset.elements, s)), b, T))
        elif isinstance(certs, TiltingError):
            raise certs
        else:
            out.append(certs)
    return tuple(out)


def tilting_rigidity(algebra, spec, certified):
    """Whether the plus- and minus-tilting families agree at every label:
    at b, whether the tilting module at spec's signs certifies at all-plus
    and at all-minus signs (see rigid_certificates, which reads
    certified[b], its certificate pair or FlagFailed under spec's
    signs)."""
    detail = {}
    for b in sorted(algebra.vertices):
        try:
            rigid_certificates(algebra, spec, b, _tilting(algebra, spec, b), certified[b])
            detail[b] = True
        except TiltingError:
            detail[b] = False
    return all(detail.values()), detail


# -- Ringel duality -----------------------------------------------------------


class RingelDual:
    def __init__(self, source_algebra, source_spec, tilt, names, parts, dual_algebra, dual_spec, hom_bases):
        self.source_algebra = source_algebra
        self.source_spec = source_spec
        self.tilt = tilt
        self.names = names
        self.parts = parts
        self.dual_algebra = dual_algebra
        self.dual_spec = dual_spec
        self.hom_bases = hom_bases


def ringel_dual(algebra, spec):
    """End(sum of tiltings)^op with the reversed poset and negated signs."""
    tset = tilting_set(algebra, spec)
    names, parts = tset.parts()
    dual_alg, hom_bases = R.endomorphism_algebra(parts, names=names)
    # rho in the order of the dual's vertices, as --dump-dual writes it
    rho = {n: spec.stratum_of[n] for n in names}
    dual_spec = S.StratSpec(spec.poset.reversed(), rho, spec.negated().signs)
    return RingelDual(algebra, spec, tset, names, parts, dual_alg, dual_spec, hom_bases)


def _hom_functor(rd, bases, block):
    """The module over the dual algebra with bases[n] spanning its space at
    n, on which a basis element x : T_bt -> T_bs acts by block(x, bt, bs).
    The dual's basis lists each Hom(T_bt, T_bs) basis of rd.hom_bases in
    order (see rep.endomorphism_algebra), so its grade (bt, bs) is that
    basis, in the order of the dual's basis.  Idempotents act as the
    identity, which R.Rep supplies."""
    pos = {n: i for i, n in enumerate(rd.names)}
    dims = {n: len(bases[n]) for n in rd.names}
    idem = set(rd.dual_algebra.idempotent_index.values())
    act = {}
    for (bt, bs), ks in rd.dual_algebra.by_grade.items():
        if dims[bt] and dims[bs]:
            for k, x in zip(ks, rd.hom_bases[(pos[bt], pos[bs])]):
                if k not in idem:
                    act[k] = block(x, bt, bs)
    return R.Rep(rd.dual_algebra, dims, act)


def _tilting_homs(rd, v, into):
    """A basis of Hom(T(n), v) (into) or of Hom(v, T(n)) for each dual
    vertex n.  When v is a summand of the tilting module these are the
    dual's own rd.hom_bases, whose diagonal bases put the identity first."""
    j = next((j for j, p in enumerate(rd.parts) if p is v), None)
    if j is not None:
        return {n: rd.hom_bases[(i, j) if into else (j, i)] for i, n in enumerate(rd.names)}
    return {n: R.hom_space(p, v) if into else R.hom_space(v, p) for n, p in zip(rd.names, rd.parts)}


def ringel_image(rd, v):
    """The hom-functor image Hom(T, v) as a module over the dual algebra:
    x : T_bt -> T_bs acts e_bs(Fv) -> e_bt(Fv) by precomposition."""
    f = rd.dual_algebra.field
    bases = _tilting_homs(rd, v, into=True)
    return _hom_functor(rd, bases, lambda x, bt, bs: Matrix.from_columns(
        f, R.hom_coords([g.compose(x) for g in bases[bs]], bases[bt]), nrows=len(bases[bt])))


def ringel_coimage(rd, v):
    """The dual-hom image (Hom(v, T))^* as a module over the dual algebra:
    x acts by the transpose of postcomposition."""
    f = rd.dual_algebra.field
    bases = _tilting_homs(rd, v, into=False)
    return _hom_functor(rd, bases, lambda x, bt, bs: Matrix(
        f, R.hom_coords([x.compose(g) for g in bases[bt]], bases[bs]), len(bases[bs])))


EXT_BOUND = 2  # verify_ringel compares Ext^0..Ext^EXT_BOUND on costandard pairs


def verify_ringel(rd):
    """Full verification of the finite Ringel duality package."""
    rep = Report(command="verify_ringel")
    alg, spec = rd.source_algebra, rd.source_spec
    dual, dual_spec = rd.dual_algebra, rd.dual_spec
    rep.data["dual_dim"] = dual.dim
    rep.data["dual_graded_dims"] = {str(k): v for k, v in dual.graded_dims().items()}
    sub = S.check_stratified(dual, dual_spec, with_ext=False)
    rep.add("dual_is_stratified", sub.ok)
    fam = S.standard_family(alg, spec)
    dual_fam = S.standard_family(dual, dual_spec)
    costd = {b: fam.signed_costandard(b) for b in rd.names}
    Fcostd = {b: ringel_image(rd, costd[b]) for b in rd.names}
    for b in rd.names:
        P = R.projective(dual, b)
        I = R.injective(dual, b)
        add_equality(rep, f"F_tilting_is_projective[{b}]", ringel_image(rd, rd.tilt.module(b)), P)
        rep.add(
            f"F_costandard_is_dual_standard[{b}]",
            R.isomorphism(Fcostd[b], dual_fam.signed_standard(b)) is not None,
        )
        add_equality(rep, f"G_tilting_is_injective[{b}]", ringel_coimage(rd, rd.tilt.module(b)), I)
        Gstd = ringel_coimage(rd, fam.signed_standard(b))
        rep.add(
            f"G_standard_is_dual_costandard[{b}]",
            R.isomorphism(Gstd, dual_fam.signed_costandard(b)) is not None,
        )
        rep.add(
            f"dual_simple_head_socle[{b}]",
            R.head_constituents(P) == {b: 1} and R.socle_constituents(I) == {b: 1},
        )
    # F(I(b)) is the dual's tilting module at b by its certificate, and
    # G(P(b)) by an isomorphism to F(I(b)) or, where that fails, by its own
    FIs = {}
    for b in rd.names:
        FIs[b] = ringel_image(rd, R.injective(alg, b))
        certified = _add_certified(rep, f"F_injective_is_dual_tilting[{b}]", dual, dual_spec, b, FIs[b])
        GP = ringel_coimage(rd, R.projective(alg, b))
        if certified:
            rep.add(f"G_projective_is_dual_tilting[{b}]", R.isomorphism(GP, FIs[b]) is not None)
        else:
            _add_certified(rep, f"G_projective_is_dual_tilting[{b}]", dual, dual_spec, b, GP)
    # double centralizer: End over the dual of F(injective cogenerator), by
    # the dimensions of its Hom blocks
    end_dim = sum(R.hom_dim(FIs[b], FIs[c]) for b in rd.names for c in rd.names)
    rep.add(
        "double_centralizer_dim",
        end_dim == alg.dim,
        end_dim=end_dim,
        source_dim=alg.dim,
    )
    # Hom/Ext transfer on costandard pairs, one resolution per first argument
    res = {b: R.Resolution(costd[b], EXT_BOUND + 1) for b in rd.names}
    Fres = {b: R.Resolution(Fcostd[b], EXT_BOUND + 1) for b in rd.names}
    for b in rd.names:
        for c in rd.names:
            lhs = R.ext_dims(res[b], costd[c], EXT_BOUND)
            rhs = R.ext_dims(Fres[b], Fcostd[c], EXT_BOUND)
            rep.add(f"ext_transfer[{b},{c}]", lhs == rhs, source=lhs, dual=rhs)
    # strata equivalence by dimension data of the stratum algebras
    for lam in sorted({spec.stratum_of[v] for v in alg.vertices}):
        s1 = S.stratum_algebra(alg, spec, lam)
        s2 = S.stratum_algebra(dual, dual_spec, lam)
        d1 = _radical_filtration_dims(s1)
        d2 = _radical_filtration_dims(s2)
        rep.add(f"stratum_equivalent[{lam}]", d1 == d2, source=d1, dual=d2)
    return rep


def add_equality(rep, name, got, want):
    """A check that got is want, dims and every action matrix: the identity
    map is its certificate.  A failure names the first basis element whose
    matrices differ, or the two dimension vectors."""
    if got.dims != want.dims:
        return rep.add(name, False, dims=got.dims, want_dims=want.dims)
    k = next(
        (k for k in sorted(got.act.keys() | want.act.keys()) if got.act.get(k) != want.act.get(k)),
        None,
    )
    if k is None:
        return rep.add(name, True)
    return rep.add(name, False, differs_at=got.algebra.basis[k].name)


def _add_certified(rep, name, algebra, spec, b, T):
    """A check that certify_tilting certifies T at b under spec's signs; a
    failure carries the failure_details of what it raised."""
    try:
        certify_tilting(algebra, spec, b, T)
    except TiltingError as e:
        return rep.add(name, False, **failure_details(e))
    return rep.add(name, True)


def failure_details(error):
    """Report details for a failed tilting certificate: the message, and
    for a FlagFailed the flavor, the sections peeled before the flag got
    stuck and the stuck dimensions."""
    if not isinstance(error, FlagFailed):
        return {"error": str(error)}
    fail = error.failure
    witness = {"sections": fail.peeled, "stuck_dims": fail.stuck.dim_vector()}
    return {"error": str(error), "flavor": fail.flavor, "witness": witness}


def _radical_filtration_dims(algebra):
    """Dimensions (dim A, dim rad, dim rad^2, ...) down to zero."""
    f = algebra.field
    rad_vecs = [r.dense() for r in algebra.radical_basis()]
    dims = [algebra.dim]
    cur = rad_vecs
    while True:
        span = span_rref(f, cur, algebra.dim)
        rows = [list(r) for r in span.rows]
        dims.append(len(rows))
        if not rows or len(dims) > algebra.dim + 2:
            break
        nxt = []
        for rvec in rad_vecs:
            x = algebra.element({i: c for i, c in enumerate(rvec) if not f.is_zero(c)})
            for vec in rows:
                y = algebra.element({i: c for i, c in enumerate(vec) if not f.is_zero(c)})
                p = x * y
                if not p.is_zero():
                    nxt.append(p.dense())
        cur = nxt
    return dims


# -- truncation towers --------------------------------------------------------


def truncation_tower(family_fn, windows, tilt_labels):
    """Stability of standard data and tilting multiplicities across nested
    window truncations of an algebra family.

    family_fn(window) must return (algebra, spec); windows must be
    strictly increasing.  For every label present in consecutive windows the
    standard/costandard dimension vectors are compared on the smaller
    window's interior, and for each label in tilt_labels the tilting
    multiplicity vector (T(b) : signed standard(c)) is compared.
    """
    rep = Report(command="truncation_tower")
    if any(a >= b for a, b in zip(windows, windows[1:])):
        raise WindowError(f"windows must be strictly increasing, got {windows}")
    per_window = {}
    held = []  # the windows stay alive, so a larger window's corners can be them
    for w in windows:
        algebra, spec = family_fn(w)
        held.append(algebra)
        fam = S.standard_family(algebra, spec)
        data = {
            "algebra_dim": algebra.dim,
            "labels": sorted(algebra.vertices),
            "standard_dims": {b: fam.signed_standard(b).total_dim() for b in algebra.vertices},
            "standard_vectors": {
                b: {v: d for v, d in fam.signed_standard(b).dims.items() if d}
                for b in algebra.vertices
            },
        }
        tilt_mults = {}
        tilt_dims = {}
        for b in tilt_labels:
            if str(b) not in set(algebra.vertices):
                raise WindowError(f"label {b} outside window {w}")
            T = _tilting(algebra, spec, str(b))
            cert = S.certify_flag(T, fam, "standard")
            tilt_mults[str(b)] = cert.multiplicities() if isinstance(cert, S.FlagCertificate) else None
            tilt_dims[str(b)] = {v: d for v, d in T.dims.items() if d}
        data["tilting_multiplicities"] = tilt_mults
        data["tilting_dims"] = tilt_dims
        per_window[w] = data
    rep.data["windows"] = {str(w): per_window[w] for w in windows}
    # stabilization: values on shared interior labels must agree
    for w1, w2 in zip(windows, windows[1:]):
        d1, d2 = per_window[w1], per_window[w2]
        shared = [b for b in d1["labels"] if b in set(d2["labels"])]
        interior = [b for b in shared if _is_interior(b, d1["labels"])]
        ok = all(
            d1["standard_vectors"][b] == d2["standard_vectors"][b] for b in interior
        )
        rep.add(f"standards_stable[{w1}->{w2}]", ok, interior=interior)
        for b in d1["tilting_multiplicities"]:
            m1 = d1["tilting_multiplicities"][b]
            m2 = d2["tilting_multiplicities"][b]
            inner = {c: m for c, m in m1.items() if _is_interior(c, d1["labels"])}
            ok = all(m2.get(c, 0) == m for c, m in inner.items())
            rep.add(f"tilting_mults_stable[{b}][{w1}->{w2}]", ok, inner=inner)
    return rep


def _is_interior(label, labels):
    """A chain-window label that is not an endpoint of the window."""
    try:
        vals = sorted(int(x) for x in labels)
        return int(label) not in (vals[0], vals[-1])
    except ValueError:
        return True


class WindowError(TiltingError):
    """A tower window list that does not strictly increase, or a tilting
    label outside one of its windows."""
