"""Based (cellular) structures on algebras: certification, cell modules,
extraction from tilting Hom spaces, and Cartan/triangular decompositions.

A based structure consists of element sets Y(i,b), optionally H(a,b), and
X(b,j) inside the algebra whose products form a basis that is triangular
with respect to a weight poset.  The flavors:

  QH   -- products y x, one special idempotent per weight, strata trivial;
  eQH  -- signed variant: the normalization moves to the Y or X side
          depending on the sign of the stratum;
  eS   -- signed, several special idempotents per stratum, strata basic;
  BS   -- symmetric products y h x with H spanning the stratum algebras;
  FQH  -- BS with bijective stratification (strata basic local).
"""

from __future__ import annotations

from . import rep as R
from . import strat as S
from . import tilting as TL
from .algebra import Algebra, BasisElement
from .exactla import Matrix, independent, integer, span_rref, vector_in_span
from .report import Report


class BasedError(ValueError):
    pass


FLAVORS = ("QH", "eQH", "eS", "BS", "FQH")


class BasedStructure:
    """Element-set data for a based algebra of the given flavor.

    Y maps (i, b) to lists of AlgElements in e_i A e_b; X maps (b, j)
    likewise; H maps (a, b) within a stratum (empty for QH/eQH flavors,
    where it is implicitly the idempotent).  spec carries the weight poset,
    the stratification of the special labels and (for signed flavors) the
    sign function.
    """

    def __init__(self, flavor, algebra, spec, Y, H, X):
        if flavor not in FLAVORS:
            raise BasedError(f"unknown flavor {flavor!r}")
        self.flavor = flavor
        self.algebra = algebra
        self.spec = spec
        self.Y = Y
        self.H = H
        self.X = X

    @property
    def signed(self):
        return self.flavor in ("eQH", "eS")

    @property
    def symmetric(self):
        return self.flavor in ("BS", "FQH")

    def special(self):
        return sorted(self.spec.stratum_of)

    def y_at(self, b):
        return [(key[0], y) for key, ys in sorted(self.Y.items()) if key[1] == b for y in ys]

    def x_at(self, b):
        return [(key[1], x) for key, xs in sorted(self.X.items()) if key[0] == b for x in xs]

    def h_at(self, a, b):
        return list(self.H.get((a, b), ()))

    def legs(self, b):
        """The Y-legs (i, y) at b, times the H-legs into b for the symmetric
        flavors: the tagged basis of the cell module at b."""
        if not self.symmetric:
            return self.y_at(b)
        lam = self.spec.stratum_of[b]
        return [(i, y * h) for a in self.spec.fiber(lam) for i, y in self.y_at(a) for h in self.h_at(a, b)]

    def products(self, labels):
        """The based products y x over the given special labels."""
        return [y * x for b in labels for _, y in self.legs(b) for _, x in self.x_at(b)]

    def to_json(self):
        f = self.algebra.field

        def enc(elt):
            return {str(k): f.to_str(c) for k, c in sorted(elt.coeffs.items())}

        return {
            "flavor": self.flavor,
            "spec": self.spec.to_json(),
            "Y": [
                {"i": i, "b": b, "elements": [enc(y) for y in ys]}
                for (i, b), ys in sorted(self.Y.items())
            ],
            "H": [
                {"a": a, "b": b, "elements": [enc(h) for h in hs]}
                for (a, b), hs in sorted(self.H.items())
            ],
            "X": [
                {"b": b, "j": j, "elements": [enc(x) for x in xs]}
                for (b, j), xs in sorted(self.X.items())
            ],
        }


def _signature_ok(algebra, elt, tgt, src):
    sig = elt.signature()
    return sig is not None and sig == (src, tgt)


def verify_based(algebra, data: BasedStructure):
    """Certification report for a based structure: grading, the product
    basis, order vanishing, idempotent normalization, and the stratum
    axiom (strata basic with the special idempotents primitive; local for
    the bijective flavors; trivial for QH)."""
    rep = Report(command="verify_based")
    spec = data.spec
    f = algebra.field
    special = data.special()
    # grading
    graded_ok = True
    for (i, b), ys in data.Y.items():
        for y in ys:
            if not _signature_ok(algebra, y, i, b):
                graded_ok = False
    for (b, j), xs in data.X.items():
        for x in xs:
            if not _signature_ok(algebra, x, b, j):
                graded_ok = False
    for (a, b), hs in data.H.items():
        for h in hs:
            if not _signature_ok(algebra, h, a, b):
                graded_ok = False
    rep.add("grading", graded_ok)
    # order vanishing on special pairs: nonempty Y(a, b) and X(b, a) need
    # the stratum of a below the stratum of b
    order_ok = True
    for (i, b), ys in data.Y.items():
        if i in set(special) and ys and not spec.poset.leq(spec.stratum_of[i], spec.stratum_of[b]):
            order_ok = False
    for (b, j), xs in data.X.items():
        if j in set(special) and xs and not spec.poset.leq(spec.stratum_of[j], spec.stratum_of[b]):
            order_ok = False
    rep.add("order_vanishing", order_ok)
    # normalization
    norm_ok = True
    for b in special:
        lam = spec.stratum_of[b]
        same = spec.fiber(lam)
        eb = algebra.idempotent(b)
        if data.flavor == "QH":
            norm_ok &= data.Y.get((b, b), []) == [eb] and data.X.get((b, b), []) == [eb]
        elif data.signed:
            sign = spec.sign(lam)
            for a in same:
                if sign == "-":
                    ys = data.Y.get((a, b), [])
                    norm_ok &= ys == ([algebra.idempotent(a)] if a == b else [])
                else:
                    xs = data.X.get((b, a), [])
                    norm_ok &= xs == ([eb] if a == b else [])
        else:  # BS / FQH
            for a in same:
                ys = data.Y.get((a, b), [])
                xs = data.X.get((b, a), [])
                want = [algebra.idempotent(a)] if a == b else []
                norm_ok &= ys == want and xs == ([eb] if a == b else [])
    rep.add("idempotent_normalization", bool(norm_ok))
    # the product basis
    products = data.products(special)
    rank = len(span_rref(f, [p.dense() for p in products], algebra.dim).rows)
    rep.add(
        "product_basis",
        len(products) == algebra.dim and rank == algebra.dim,
        products=len(products),
        rank=rank,
        dim=algebra.dim,
    )
    # stratum axiom
    for lam in sorted({spec.stratum_of[b] for b in special}):
        fiber = spec.fiber(lam)
        corner = S.stratum_algebra(algebra, spec, lam)
        if data.flavor == "QH":
            rep.add(f"stratum_trivial[{lam}]", corner.dim == 1, dim=corner.dim)
            continue
        # a field that refuses the radical (CharTooSmall) certifies nothing,
        # so the refusal propagates as a configuration error
        basic = corner.dim - len(corner.radical_basis()) == len(fiber)
        if data.flavor in ("eQH", "FQH"):
            rep.add(
                f"stratum_basic_local[{lam}]",
                basic and len(fiber) == 1,
                dim=corner.dim,
                fiber=fiber,
            )
        else:
            rep.add(f"stratum_basic[{lam}]", basic, dim=corner.dim, fiber=fiber)
    return rep


# -- cell modules -------------------------------------------------------------


def cell_module(algebra, data: BasedStructure, b):
    """The cell module at a special label, carrying its tagged standard
    basis indexed by the Y-legs (times the H-legs for the symmetric
    flavors).

    For unsigned and plus-sign strata this is the left ideal of the lower
    quotient generated by the special idempotent; at a minus-sign stratum
    of a signed flavor it is the proper standard module (the quotient by
    the stratum radical), matching the indexing of the standard basis.
    Returns (Rep, tags): the tagged products are verified to be a basis.
    """
    b = str(b)
    spec = data.spec
    lam = spec.stratum_of[b]
    quot, tmap = S.lower_quotient(algebra, spec, lam)
    tags = data.legs(b)
    eb = algebra.idempotent(b)
    try:
        span = R.projective_span(quot, b, [tmap.push(y * eb) for _, y in tags])
    except R.RepError as e:
        raise BasedError("cell basis vector escapes the cell module") from e
    if data.signed and spec.sign(lam) == "-":
        target, proj = S.proper_quotient(quot, S.stratum_algebra(algebra, spec, lam), b)
        span = {v: proj.mats[v] * m for v, m in span.items()}
    else:
        target = R.projective(quot, b)
    if len(tags) != target.total_dim():
        raise BasedError(
            f"standard basis size {len(tags)} does not match cell dimension {target.total_dim()}"
        )
    if any(m.rank() != target.dims[v] for v, m in span.items()):
        raise BasedError("tagged products do not form a basis of the cell module")
    return S.inflate(target, algebra, tmap), tags


def cell_verify(algebra, data: BasedStructure):
    """Head simplicity of cell modules, the projective filtration with its
    section flags, and agreement with the stratification machinery's
    standard and costandard modules."""
    rep = Report(command="cell_verify")
    spec = data.spec
    fam = S.standard_family(algebra, spec)
    # the unsigned flavors' standards are the signed ones at all-plus signs
    view = fam if data.signed else S.standard_family(algebra, spec.with_signs(dict.fromkeys(spec.poset.elements, "+")))
    for b in data.special():
        cell, tags = cell_module(algebra, data, b)
        head = R.head_constituents(cell)
        rep.add(f"cell_head_simple[{b}]", head == {b: 1}, head=head)
        rep.add(f"cell_basis_size[{b}]", len(tags) == cell.total_dim(), size=len(tags))
        # cell_module builds the family's module by the same construction
        TL.add_equality(rep, f"cell_matches_standard[{b}]", cell, view.signed_standard(b))
        expected_co = fam.signed_costandard(b) if data.signed else fam.costandard(b)
        socle = R.socle_constituents(expected_co)
        rep.add(f"costandard_available[{b}]", socle == {b: 1}, socle=socle)
    for b in data.special():
        ok, sections = _projective_cell_filtration(algebra, data, b, view)
        rep.add(f"projective_cell_filtration[{b}]", ok, sections=sections)
    return rep


def _projective_cell_filtration(algebra, data, b, view):
    """Filtration of A e_b by spans of based products through strata.

    The section at a stratum lambda must carry a flag of the view's signed
    standards with the X-leg counts, all at lambda, as multiplicities.  At
    minus-sign strata of a signed flavor that flag of proper standards is
    the claim.  Otherwise it certifies a direct sum of standard modules:
    the section is then zero at every label outside the lower set of
    lambda, so it is a module over the lower quotient A_{<=lambda}, over
    which each standard at lambda is projective, and every step of the
    flag splits.
    """
    spec = data.spec
    sections = []
    ok = True
    for lam, sec in _cell_sections(algebra, data, b):
        counts = {}
        for c in spec.fiber(lam):
            n = len([x for (j, x) in data.x_at(c) if j == b])
            if n:
                counts[c] = n
        expect = sum(view.signed_standard(c).total_dim() * n for c, n in counts.items())
        if sec.total_dim() != expect:
            ok = False
            sections.append({"stratum": lam, "dim": sec.total_dim(), "expected": expect})
            continue
        if counts:
            cert = S.certify_flag(sec, view, "standard")
            if not isinstance(cert, S.FlagCertificate) or cert.multiplicities() != counts:
                ok = False
            sections.append({"stratum": lam, "multiplicities": counts})
    return ok, sections


def _cell_sections(algebra, data, b):
    """(stratum, section) pairs, lowest stratum first, of the filtration of
    A e_b whose r-th step is generated by the based products through the
    strata order[r:] of a linear extension.  Each step is closed once, on
    top of the step above it."""
    spec = data.spec
    P = R.projective(algebra, b)
    strata = {spec.stratum_of[a] for a in data.special()}
    order = [lam for lam in spec.poset.linear_extension() if lam in strata]
    subs = [R.sub_rep(P, {})]
    for lam in reversed(order):
        prods = [
            y * x
            for c in spec.fiber(lam)
            for j, x in data.x_at(c)
            if j == b
            for _, y in data.legs(c)
        ]
        new = R.projective_span(algebra, b, prods)
        above = subs[-1][1].mats
        spans = {v: above[v].hstack(new[v]) if v in new else above[v] for v in above}
        subs.append(R.sub_rep(P, R.close_spans(P, spans)))
    subs.reverse()
    out = []
    for r, lam in enumerate(order):
        (sub, incl), (_, inner) = subs[r], subs[r + 1]
        spans = {v: incl.mats[v].solve(inner.mats[v]) for v in algebra.vertices}
        out.append((lam, R.quotient_rep(sub, spans)[0]))
    return out


# -- extraction from tilting Hom spaces ---------------------------------------


def extract_cellular(algebra, spec, flavor):
    """An idempotent-adapted cellular structure on the opposite
    endomorphism algebra of the tilting generator, under spec's signs.

    The tilting modules are those of ringel_dual, each certified by
    tilting.certify_tilting, whose flags start and end at their labels.
    For the signed flavors the Y-legs lift Hom(T_i, signed costandard)
    bases through the top costandard projections and the X-legs lift
    Hom(signed standard, T_j) bases through the bottom standard
    inclusions, the end maps of the flag certificates, in the dual's own
    Hom bases; identity lifts realize the normalization axiom.  The
    symmetric flavors require tilting rigidity, read off each tilting
    module by tilting.rigid_certificates, and lift stratum Hom spaces
    through the end maps of its all-plus and all-minus flags.  A flag that
    fails to certify raises FlagFailed: the job's signs first, then
    all-plus, then all-minus.  Returns (structure, ringel_dual).
    """
    want_symmetric = flavor in ("BS", "FQH")
    if flavor == "auto":
        flavor = "eQH" if len(set(spec.stratum_of.values())) == len(spec.stratum_of) else "eS"
    rd = TL.ringel_dual(algebra, spec)
    tset = rd.tilt
    names = rd.names
    H = {}
    if not want_symmetric:
        Y, X = _legs(rd, {b: tset.costd_certs[b].end() for b in names}, {b: tset.std_certs[b].end() for b in names})
    else:
        # symmetric flavors: proper projections/inclusions come from the
        # all-plus and all-minus flags of the rigid tilting modules
        proper_proj, proper_incl, full_proj, full_incl = {}, {}, {}, {}
        for b in names:
            job_certs = tset.std_certs[b], tset.costd_certs[b]
            (plus_s, plus_c), (minus_s, minus_c) = TL.rigid_certificates(algebra, spec, b, tset.module(b), job_certs)
            proper_proj[b] = plus_c.end()
            full_proj[b] = minus_c.end()
            full_incl[b] = plus_s.end()
            proper_incl[b] = minus_s.end()
        Y, X = _legs(rd, proper_proj, proper_incl)
        for a in names:
            for b in names:
                if spec.stratum_of[a] != spec.stratum_of[b]:
                    continue
                pi, iota = full_proj[b], full_incl[a]
                space = R.hom_space(iota.source, pi.target)
                _add_lifts(H, rd, a, b, lambda h: pi.compose(h).compose(iota), space)
    structure = BasedStructure(flavor, rd.dual_algebra, rd.dual_spec, Y, H, X)
    return structure, rd


def _legs(rd, projections, inclusions):
    """The Y-legs Hom(T_i, top of T_b) lifted through the top projection of
    T_b, and the X-legs Hom(bottom of T_b, T_j) lifted through its bottom
    inclusion.  At i = b (j = b) the projection (inclusion) leads the basis
    and lifts to the identity."""
    Y, X = {}, {}
    for b in rd.names:
        pi, iota = projections[b], inclusions[b]
        for i in rd.names:
            space = R.hom_space(rd.tilt.module(i), pi.target)
            _add_lifts(Y, rd, i, b, pi.compose, space, pi if i == b else None)
        for j in rd.names:
            space = R.hom_space(iota.source, rd.tilt.module(j))
            _add_lifts(X, rd, b, j, lambda x: x.compose(iota), space, iota if j == b else None)
    return Y, X


def _add_lifts(out, rd, i, j, compose, space, anchor=None):
    """Set out[(i, j)] to the dual-algebra elements of maps x : T_i -> T_j
    with compose(x) running through space, the caller's basis of the Hom
    space the targets lie in, if there are any.  The dual's grade (i, j)
    lists the basis rd.hom_bases of Hom(T_i, T_j) in order, so a lift's
    coordinates over that basis are its element.  An anchor joins the
    targets first and lifts to the identity."""
    dual = rd.dual_algebra
    elements = []
    targets = space
    if anchor is not None:
        targets = R._basis_with_first(anchor, space)[1:]
        elements.append(dual.idempotent(i))
    cols = R.lift(rd.hom_bases[(rd.names.index(i), rd.names.index(j))], compose, targets, space)
    if cols is None:
        raise BasedError(f"no lift T_{i} -> T_{j} onto the cellular targets")
    ks = dual.by_grade.get((i, j), ())
    elements += [dual.element({k: c for k, c in zip(ks, col) if not dual.field.is_zero(c)}) for col in cols]
    if elements:
        out[(i, j)] = elements


# -- Cartan and triangular decompositions --------------------------------------


class TriangularData:
    """Spanning data for a Cartan decomposition (lowering/diagonal/raising
    subspaces) or a triangular decomposition (strict subalgebras), over a
    poset on the vertices: the weights gamma are the vertices.

    kind 'cartan': flat/circ/sharp subspaces with circ a subalgebra;
    kind 'triangular': minus/circ/plus subalgebras, from which the flat
    and sharp spaces are derived as products.
    """

    def __init__(self, kind, algebra, gamma, poset, lowering, diagonal, raising):
        if kind not in ("cartan", "triangular"):
            raise BasedError("kind must be 'cartan' or 'triangular'")
        self.gamma = [str(g) for g in gamma]
        if sorted(self.gamma) != sorted(algebra.vertices):
            raise BasedError(f"weights {sorted(self.gamma)} are not the vertices {sorted(algebra.vertices)}")
        self.kind = kind
        self.algebra = algebra
        self.poset = poset
        self.lowering = lowering  # elements spanning the flat (resp. minus) part
        self.diagonal = diagonal  # elements spanning the circ part
        self.raising = raising    # elements spanning the sharp (resp. plus) part
        self._spans = None

    def spans(self):
        """The rrefs of the lowering, diagonal and raising spans, each
        reduced once."""
        if self._spans is None:
            self._spans = tuple(_span_rows(self.algebra, part) for part in (self.lowering, self.diagonal, self.raising))
        return self._spans

    @staticmethod
    def from_json(algebra, data):
        def dec(d):
            if not isinstance(d, dict):
                raise BasedError(f"an element is an object of basis index: coefficient, not {d!r}")
            index = {k: integer(k) for k in d}
            for k, i in index.items():
                if i is None or not 0 <= i < algebra.dim:
                    raise BasedError(f"basis index {k!r} outside 0..{algebra.dim - 1}")
            return algebra.element({index[k]: c for k, c in d.items()})

        for key in ("gamma", "lowering", "diagonal", "raising"):
            if not isinstance(data[key], list):
                raise BasedError(f"{key} must be a list, not {data[key]!r}")
        try:
            poset = S.Poset(data["gamma"], data["covers"])
        except S.StratError as e:
            raise BasedError(str(e)) from e
        return TriangularData(
            data["kind"],
            algebra,
            data["gamma"],
            poset,
            [dec(x) for x in data["lowering"]],
            [dec(x) for x in data["diagonal"]],
            [dec(x) for x in data["raising"]],
        )


def _span_rows(algebra, elements):
    return span_rref(algebra.field, [e.dense() for e in elements], algebra.dim)


def _closed_under_products(algebra, left, right, span):
    return all(vector_in_span(span, (a * b).dense()) for a in left for b in right)


def _add_diagonal_check(rep, name, algebra, data):
    """Add the check that the diagonal is a subalgebra holding the
    idempotent of every weight; its witness names the weights it misses."""
    circ_span = data.spans()[1]
    missing = [g for g in data.gamma if not vector_in_span(circ_span, algebra.idempotent(g).dense())]
    rep.add(
        name,
        not missing and _closed_under_products(algebra, data.diagonal, data.diagonal, circ_span),
        **({"missing_idempotents": missing} if missing else {}),
    )


def subalgebra_object(algebra, elements, vertices):
    """Package a multiplicatively closed subspace holding the idempotents
    of the given vertices, which are all the vertices, as its own Algebra.
    The subspace is graded: it holds e_g c e_h with each element c.

    Returns (subalgebra, carriers): carriers[t] is the element of the
    ambient algebra realizing the t-th basis vector, a graded basis with
    the idempotents first."""
    f = algebra.field
    chosen = [algebra.idempotent(v) for v in vertices]
    graded = [e for _, e in _graded_basis(algebra, elements)]
    base = [e.dense() for e in chosen]
    chosen += [graded[i] for i in independent(f, [e.dense() for e in graded], algebra.dim, base=base)]
    belems = []
    for t, e in enumerate(chosen):
        src, tgt = e.signature()
        belems.append(BasisElement(f"e_{src}" if t < len(vertices) else f"c{t}", src, tgt, None))
    # the structure constants: every nonzero product, from one solve
    keys, prods = [], []
    for a, x in enumerate(chosen):
        for bb, y in enumerate(chosen):
            p = x * y
            if not p.is_zero():
                keys.append((a, bb))
                prods.append(p)
    mult = {}
    for key, col in zip(keys, _coords(algebra, chosen, prods)):
        entries = tuple((s, c) for s, c in enumerate(col) if not f.is_zero(c))
        if entries:
            mult[key] = entries
    idem = {str(v): t for t, v in enumerate(vertices)}
    sub = Algebra(f, [str(v) for v in vertices], belems, idem, mult, generators=None)
    return sub, chosen


# the checks that read the diagonal as an algebra, in report order
_CARTAN_DEPENDENTS = ("multiplication_bijective", "flat_projective_over_diagonal", "sharp_projective_over_diagonal")


def _dependents_fail(rep, names, reason):
    """Add the named checks as failing for the reason, and return
    check_cartan's result without a structure."""
    for name in names:
        rep.add(name, False, reason=reason)
    return rep, None


def check_cartan(algebra, data: TriangularData):
    """Axioms of a Cartan decomposition, and the based structure they give.

    The checks: the diagonal is a subalgebra holding the idempotent of
    every weight (the witness names those it misses), the flat and sharp
    spaces are closed under it and agree with it on the diagonal
    components, order vanishing, bijectivity of the multiplication map
    out of the tensor over the diagonal, and projectivity of the flat
    space as a right and of the sharp space as a left diagonal module,
    read as freeness over each block of a pointed diagonal.

    Returns (report, structure).  The structure, None unless every check
    passed, is assembled from what the checks found: Y collects the free
    right-module generators of the flat columns, X the free left-module
    generators of the sharp rows, and H the diagonal blocks.  Its weight
    poset is the diagonal's block poset, one block per vertex; its flavor
    is QH when the diagonal is semisimple and FQH otherwise
    (quasi-locality is automatic for a pointed diagonal).
    """
    rep = Report(command="check_cartan")
    f = algebra.field
    gamma = data.gamma
    flat, circ, sharp = data.lowering, data.diagonal, data.raising
    flat_span, _, sharp_span = data.spans()
    _add_diagonal_check(rep, "diag_subalgebra", algebra, data)
    rep.add(
        "closure_flat",
        _closed_under_products(algebra, circ, flat, flat_span)
        and _closed_under_products(algebra, flat, circ, flat_span),
    )
    rep.add(
        "closure_sharp",
        _closed_under_products(algebra, circ, sharp, sharp_span)
        and _closed_under_products(algebra, sharp, circ, sharp_span),
    )
    unclosed = [c.name for c in rep.failures()]
    # diagonal components: e_g flat e_g and e_g sharp e_g equal circ at g,
    # compared as canonical (rref) bases
    diag_ok = True
    for g in gamma:
        circ_g, flat_g, sharp_g = (
            _span_rows(algebra, [e for e in part if e.signature() == (g, g)]).rows for part in (circ, flat, sharp)
        )
        diag_ok &= circ_g == flat_g == sharp_g
    rep.add("diagonal_components", diag_ok)
    flat_basis, sharp_basis = _graded_basis(algebra, flat), _graded_basis(algebra, sharp)
    rep.add(
        "cartan_order_vanishing",
        all(data.poset.leq(tgt, src) for (src, tgt), _ in flat_basis)
        and all(data.poset.leq(src, tgt) for (src, tgt), _ in sharp_basis),
    )
    if unclosed:
        # without the closures there is no diagonal bimodule to tensor over
        return _dependents_fail(rep, _CARTAN_DEPENDENTS, f"{', '.join(unclosed)} failed")
    circ_alg, carriers = subalgebra_object(algebra, circ, gamma)
    # multiplication map bijective: products span A, and the tensor
    # dimension matches dim A
    prods = [p.dense() for p in (u * v for u in flat for v in sharp) if not p.is_zero()]
    surj = len(span_rref(f, prods, algebra.dim).rows) == algebra.dim
    tensor_dim = _tensor_dim_over_diagonal(algebra, flat_basis, sharp_basis, carriers)
    rep.add(
        "multiplication_bijective",
        surj and tensor_dim == algebra.dim,
        tensor_dim=tensor_dim,
        dim=algebra.dim,
    )
    # projectivity over the diagonal: freeness over each block, which
    # decides it when the blocks are local and nothing between them is
    # invertible, that is when the diagonal is pointed
    if circ_alg.dim - len(circ_alg.radical_basis()) != len(gamma):
        return _dependents_fail(rep, _CARTAN_DEPENDENTS[1:], "the diagonal is not pointed")
    rad = _graded_basis(algebra, _radical_carriers(circ_alg, carriers, algebra))
    flat_gens = _free_generators(algebra, flat_basis, gamma, carriers, rad, "right")
    sharp_gens = _free_generators(algebra, sharp_basis, gamma, carriers, rad, "left")
    rep.add("flat_projective_over_diagonal", None not in flat_gens.values())
    rep.add("sharp_projective_over_diagonal", None not in sharp_gens.values())
    if not rep.ok:
        return rep, None
    # every check passed: each block has its generators, on both sides
    Y, X, H = {}, {}, {}
    for lam in gamma:
        e = algebra.idempotent(lam)
        Y[(lam, lam)] = [e]
        Y.update({(other, lam): gens for other, gens in flat_gens[lam].items() if other != lam})
        X[(lam, lam)] = [e]
        X.update({(lam, other): gens for other, gens in sharp_gens[lam].items() if other != lam})
        if rad:
            H[(lam, lam)] = [e] + [r for sig, r in rad if sig == (lam, lam)]
    spec = S.StratSpec(data.poset, {g: g for g in gamma}, {g: "+" for g in gamma})
    return rep, BasedStructure("FQH" if rad else "QH", algebra, spec, Y, H, X)


def _tensor_dim_over_diagonal(algebra, flat_basis, sharp_basis, carriers):
    """dim of (flat tensor over circ sharp) via matched pairs modulo the
    bimodule relations u a (x) v - u (x) a v, one coordinate solve per
    diagonal basis element and side."""
    f = algebra.field
    key_of = {}
    for ui, ((su, _), _) in enumerate(flat_basis):
        for vi, ((_, tv), _) in enumerate(sharp_basis):
            if su == tv:
                key_of[(ui, vi)] = len(key_of)
    n = len(key_of)
    flat = [u for _, u in flat_basis]
    sharp = [v for _, v in sharp_basis]
    rel = []
    for a in carriers:
        cu = _coords(algebra, flat, [u * a for u in flat])
        cv = _coords(algebra, sharp, [a * v for v in sharp])
        for ui in range(len(flat)):
            for vi in range(len(sharp)):
                vec = [f.zero] * n
                for uj, c in enumerate(cu[ui]):
                    t = key_of.get((uj, vi))
                    if t is not None and not f.is_zero(c):
                        vec[t] = f.add(vec[t], c)
                for vj, c in enumerate(cv[vi]):
                    t = key_of.get((ui, vj))
                    if t is not None and not f.is_zero(c):
                        vec[t] = f.sub(vec[t], c)
                if any(not f.is_zero(x) for x in vec):
                    rel.append(vec)
    return n - len(span_rref(f, rel, n).rows)


def _coords(algebra, basis, elements):
    """Coordinates of the elements in a basis of algebra elements, from one
    solve.  The elements lie in the span, by checks that passed first:
    products in the diagonal by diag_subalgebra, and the diagonal's
    actions on the flat and sharp spaces by closure_flat and
    closure_sharp."""
    f = algebra.field
    return Matrix.from_columns(f, [e.dense() for e in basis], nrows=algebra.dim).solve(
        Matrix.from_columns(f, [e.dense() for e in elements], nrows=algebra.dim)
    ).columns()


def _graded_basis(algebra, elements):
    """Split spanning elements into graded components and reduce to a
    basis, returned as ((src, tgt), element) pairs."""
    by_sig = {}
    for e in elements:
        comps = {}
        for k, c in e.coeffs.items():
            comps.setdefault((algebra.src(k), algebra.tgt(k)), {})[k] = c
        for sig, coeffs in comps.items():
            by_sig.setdefault(sig, []).append(algebra.element(coeffs))
    out = []
    for sig in sorted(by_sig, key=str):
        elems = by_sig[sig]
        out += [(sig, elems[i]) for i in independent(algebra.field, [e.dense() for e in elems], algebra.dim)]
    return out


def _free_generators(algebra, graded, gamma, carriers, rad, side):
    """Per block lam of gamma, free generators over the local block of the
    columns e_i (flat) e_lam (side 'right') or the rows e_lam (sharp) e_j
    (side 'left'), by the other vertex; None at a block where they are not
    free.  graded and rad are graded bases, as ((src, tgt), element)
    pairs, of the space and of the diagonal's radical; carriers is the
    diagonal's graded basis."""
    return {lam: _block_generators(algebra, graded, lam, carriers, rad, side) for lam in gamma}


def _block_generators(algebra, graded, lam, carriers, rad, side):
    """The free generators at one block, or None.  Each space is a module
    over the local block, closed under it by the closure checks, so the
    elements independent modulo (space . rad) resp. (rad . space) generate
    it (Nakayama).  It is then free on them exactly when their number times
    the block's dimension is its own."""
    f = algebra.field
    mul = (lambda g, h: g * h) if side == "right" else (lambda g, h: h * g)
    block = [c for c in carriers if c.signature() == (lam, lam)]
    rad_elems = [r for sig, r in rad if sig == (lam, lam)]
    groups = {}
    for (src, tgt), e in graded:
        if side == "right" and src == lam:
            groups.setdefault(tgt, []).append(e)
        if side == "left" and tgt == lam:
            groups.setdefault(src, []).append(e)
    gens = {}
    for other, elems in sorted(groups.items()):  # each a graded basis
        base = [p.dense() for p in (mul(e, r) for e in elems for r in rad_elems) if not p.is_zero()]
        chosen = [elems[i] for i in independent(f, [e.dense() for e in elems], algebra.dim, base=base)]
        if len(chosen) * len(block) != len(elems):
            return None
        gens[other] = chosen
    return gens


def check_triangular(algebra, data: TriangularData):
    """Axioms of a triangular decomposition, then check_cartan on the
    derived Cartan data.  Returns (report, structure), the structure
    check_cartan assembles, None unless every check passed."""
    rep = Report(command="check_triangular")
    f = algebra.field
    minus, circ, plus = data.lowering, data.diagonal, data.raising
    # derived flat = minus . circ and sharp = circ . plus must be subalgebras
    cartan = derive_cartan(algebra, data)
    flat_span, _, sharp_span = cartan.spans()  # check_cartan reads the same rrefs
    rep.add("minus_subalgebra", _closed_under_products(algebra, minus, minus, _span_rows(algebra, minus)))
    rep.add("plus_subalgebra", _closed_under_products(algebra, plus, plus, _span_rows(algebra, plus)))
    # the diagonal is check_cartan's, held to the same check
    _add_diagonal_check(rep, "circ_subalgebra", algebra, cartan)
    rep.add("flat_subalgebra", _closed_under_products(algebra, cartan.lowering, cartan.lowering, flat_span))
    rep.add("sharp_subalgebra", _closed_under_products(algebra, cartan.raising, cartan.raising, sharp_span))
    mb, cb, pb = (_graded_basis(algebra, part) for part in (minus, circ, plus))
    # diagonal condition TD3: e_g minus e_g = e_g plus e_g = k e_g
    rep.add(
        "diagonal_scalars",
        all(
            _span_rows(algebra, [e for sig, e in basis if sig == (g, g)]).rows == [algebra.idempotent(g).dense()]
            for g in data.gamma
            for basis in (mb, pb)
        ),
    )
    # order vanishing TD4
    rep.add(
        "triangular_order_vanishing",
        all(data.poset.leq(tgt, src) for (src, tgt), _ in mb) and all(data.poset.leq(src, tgt) for (src, tgt), _ in pb),
    )
    # TD2: matched triple products form a basis
    triples = []
    for (su, tu), u in mb:
        for (sh, th), h in cb:
            if su != th:
                continue
            for (sv, tv), v in pb:
                if sh != tv:
                    continue
                triples.append(u * h * v)
    vecs = [t.dense() for t in triples if not t.is_zero()]
    rank = len(span_rref(f, vecs, algebra.dim).rows)
    rep.add(
        "triple_products_basis",
        len(triples) == algebra.dim and rank == algebra.dim,
        triples=len(triples),
        rank=rank,
        dim=algebra.dim,
    )
    sub, structure = check_cartan(algebra, cartan)
    rep.extend(sub)
    return rep, structure if rep.ok else None


def derive_cartan(algebra, data: TriangularData):
    """The Cartan data underlying a triangular decomposition."""
    minus, circ, plus = data.lowering, data.diagonal, data.raising
    flat = list(minus) + [p for p in (u * h for u in minus for h in circ) if not p.is_zero()]
    sharp = list(plus) + [p for p in (h * v for h in circ for v in plus) if not p.is_zero()]
    return TriangularData("cartan", algebra, data.gamma, data.poset, flat, circ, sharp)


def _radical_carriers(circ_alg, carriers, algebra):
    """The diagonal's radical basis, as elements of the algebra."""
    zero = algebra.element({})
    return [sum((carriers[k].scale(c) for k, c in r.coeffs.items()), zero) for r in circ_alg.radical_basis()]
