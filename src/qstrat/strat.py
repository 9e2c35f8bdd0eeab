"""Stratification data and the standard/costandard module machinery.

Builds, for a pointed split algebra with a weight poset: the stratum
algebras, the four families of standard/costandard modules, signed
selections for a sign function, constructive flag certificates, and the
verification suite for the stratified / fully stratified / highest-weight
axioms, BGG reciprocity and Ext orthogonality.
"""

from __future__ import annotations

from . import rep as R
from .exactla import Matrix
from .report import Report


class StratError(ValueError):
    pass


class Poset:
    """A finite poset given by elements and cover pairs (a, b) meaning a < b."""

    def __init__(self, elements, covers):
        if not isinstance(elements, (list, tuple)):
            raise StratError(f"poset elements must be a list, not {elements!r}")
        self.elements = tuple(str(e) for e in elements)
        for c in covers if isinstance(covers, (list, tuple)) else [covers]:
            if not (isinstance(c, (list, tuple)) and len(c) == 2):
                raise StratError(f"a cover is a pair of elements, not {c!r}")
        self.covers = tuple((str(a), str(b)) for a, b in covers)
        lower = {e: [] for e in self.elements}
        upper = {e: [] for e in self.elements}
        for a, b in self.covers:
            if a not in lower or b not in lower:
                raise StratError(f"cover ({a},{b}) uses unknown element")
            if a == b:
                raise StratError(f"cover ({a},{b}) relates an element to itself")
            lower[b].append(a)
            upper[a].append(b)
        self._down = self._down_sets(lower, upper)

    def _down_sets(self, lower, upper):
        """Each element's down-set, from one topological (Kahn) pass over
        its lower and upper covers: itself and its lower covers' down-sets."""
        waiting = {e: len(ls) for e, ls in lower.items()}
        ready = [e for e, n in waiting.items() if not n]
        down = {}
        for b in ready:  # grows as the pass frees elements
            down[b] = {b}.union(*(down[a] for a in lower[b]))
            for c in upper[b]:
                waiting[c] -= 1
                if not waiting[c]:
                    ready.append(c)
        if len(down) < len(lower):
            # name the first element on a cycle, which the pass never
            # frees, and the first other element on a cycle with it
            reach = {}
            for e in lower.keys() - down.keys():
                reach[e], todo = set(), [e]
                while todo:
                    new = set(upper[todo.pop()]) - reach[e]
                    reach[e] |= new
                    todo += new
            a = next(a for a in self.elements if a in reach.get(a, ()))
            b = next(b for b in self.elements if b != a and b in reach[a] and a in reach[b])
            raise StratError(f"covers are cyclic at {a}, {b}")
        return down

    def leq(self, a, b):
        return str(a) in self._down.get(str(b), ())

    def lt(self, a, b):
        return a != b and self.leq(a, b)

    def minimal(self, subset):
        sub = list(subset)
        return [a for a in sub if not any(self.lt(b, a) for b in sub)]

    def reversed(self):
        return Poset(self.elements, [(b, a) for a, b in self.covers])

    def linear_extension(self, subset=None):
        """The elements (of subset) in rounds of the minimal ones left, by name."""
        out = []
        remaining = set(self.elements if subset is None else subset)
        while remaining:
            mins = sorted(self.minimal(remaining))
            out.extend(mins)
            remaining -= set(mins)
        return out

    def __repr__(self):
        return f"Poset({list(self.elements)}, covers={list(self.covers)})"


class StratSpec:
    """Weight poset, stratification map from simples to weights, signs.

    stratum_of maps each vertex (= simple label) of the algebra to a poset
    element; signs maps each poset element to '+' or '-'.
    """

    def __init__(self, poset, stratum_of, signs):
        self.poset = poset
        self.stratum_of = {str(k): str(v) for k, v in stratum_of.items()}
        self.signs = {str(k): v for k, v in signs.items()}
        elements = set(self.poset.elements)
        for v in self.stratum_of.values():
            if v not in elements:
                raise StratError(f"stratum {v} not in the poset")
        for e in self.poset.elements:
            if self.signs.get(e) not in ("+", "-"):
                raise StratError(f"sign of {e} must be '+' or '-'")

    def validate(self, algebra):
        if set(self.stratum_of) != set(algebra.vertices):
            raise StratError("stratification must label exactly the vertices")
        return True

    def fiber(self, lam):
        lam = str(lam)
        return sorted(b for b, mu in self.stratum_of.items() if mu == lam)

    def sign(self, lam):
        return self.signs[str(lam)]

    def with_signs(self, signs):
        return StratSpec(self.poset, dict(self.stratum_of), dict(signs))

    def negated(self):
        flip = {"+": "-", "-": "+"}
        return StratSpec(self.poset, dict(self.stratum_of), {e: flip[s] for e, s in self.signs.items()})

    def to_json(self):
        return {
            "poset": {"elements": list(self.poset.elements), "covers": [list(c) for c in self.poset.covers]},
            "rho": dict(self.stratum_of),
            "epsilon": dict(self.signs),
        }

    @staticmethod
    def from_json(data):
        for key in ("poset", "rho", "epsilon"):
            if not isinstance(data[key], dict):
                raise StratError(f"{key} must be an object, not {data[key]!r}")
        poset = Poset(data["poset"]["elements"], data["poset"]["covers"])
        return StratSpec(poset, data["rho"], data["epsilon"])


# -- stratum algebras and standardization ------------------------------------


def lower_quotient(algebra, spec, lam):
    """(A_{<=lam}, truncation map): the quotient by the idempotents of the
    labels whose stratum is not below lam.  This is the one place a
    lower-set kill set is formed; the algebra memoizes the quotient."""
    lam = str(lam)
    return algebra.truncate_lower(
        {v for v, mu in spec.stratum_of.items() if not spec.poset.leq(mu, lam)}
    )


def strat_key(spec, signed=False):
    """The stratification restricted to the strata spec's labels lie in:
    each stratum with its fiber, the order among these strata and, when
    signed, their signs.  It is the memo key of the standard families
    (unsigned) and of the tilting modules (signed) of an algebra: nothing
    either construction reads lies outside it."""
    fibers = {}
    for v, lam in sorted(spec.stratum_of.items()):
        fibers.setdefault(lam, []).append(v)
    present = sorted(fibers)
    return (
        tuple((lam, tuple(fibers[lam])) for lam in present),
        tuple(sorted((a, c) for c in fibers for a in spec.poset._down[c] if a != c and a in fibers)),
        tuple(spec.signs[lam] for lam in present) if signed else None,
    )


class StandardFamily:
    """All eight standard/costandard families over one algebra and spec.

    Modules are plain Reps over the original algebra, inflated through the
    lower-set quotient maps.  They depend on the stratification only, not
    on the signs, so the algebra memoizes them per strat_key, and a family
    is a view that carries its caller's spec, whose signs the signed_*
    selections, the flags and the Hom and Ext memos read (a caller that
    needs other signs takes the view of spec.with_signs).  Each (label,
    kind) is built on its first use; so are the vertex flags, the Hom
    orthogonality dimensions and the resolutions of signed standards kept
    beside them.  Where the stratum
    algebra at a label has zero radical (the highest-weight case), the
    proper (co)standard is the (co)standard, the same object, and these
    memos are keyed by the modules they read, not by the signs.
    """

    def __init__(self, algebra, spec):
        spec.validate(algebra)
        self.algebra = algebra
        self.spec = spec
        key = strat_key(spec)
        if key not in algebra._families:
            R.simples(algebra)  # splitness gate, before anything is stored
            algebra._families[key] = {}
        self._modules = algebra._families[key]  # (label, kind) -> Rep, and the memos below

    def _kind(self, b, kind):
        """The kind built for (b, kind): a proper kind is the plain one
        where the stratum algebra at b is semisimple, so that
        proper_quotient divides out nothing."""
        key = ("stratum", self.spec.stratum_of[b], "simple")
        if kind.startswith("proper_") and key not in self._modules:
            self._modules[key] = stratum_algebra(self.algebra, self.spec, key[1]).is_semisimple()
        return kind.removeprefix("proper_") if self._modules.get(key) else kind

    def _module(self, b, kind):
        key = (str(b), self._kind(str(b), kind))
        if key not in self._modules:
            self._modules[key] = self._build(*key)
        return self._modules[key]

    def _build(self, b, kind):
        lam = self.spec.stratum_of[b]
        quot, tmap = lower_quotient(self.algebra, self.spec, lam)
        # the costandard side is the dual of the standard side over the
        # opposite quotient, (A/I)^op = A^op/I
        side = quot.opposite() if kind.endswith("costandard") else quot
        if kind.startswith("proper"):
            # the corner of the opposite is the opposite of the corner
            stratum = stratum_algebra(self.algebra, self.spec, lam)
            small = proper_quotient(side, stratum if side is quot else stratum.opposite(), b)[0]
        else:
            small = R.projective(side, b)
        return inflate(small if side is quot else R.dual(small), self.algebra, tmap)

    def standard(self, b):
        return self._module(b, "standard")

    def costandard(self, b):
        return self._module(b, "costandard")

    def proper_standard(self, b):
        return self._module(b, "proper_standard")

    def proper_costandard(self, b):
        return self._module(b, "proper_costandard")

    def signed_standard(self, b):
        s = self.spec.signs[self.spec.stratum_of[str(b)]]
        return self.standard(b) if s == "+" else self.proper_standard(b)

    def signed_costandard(self, b):
        s = self.spec.signs[self.spec.stratum_of[str(b)]]
        return self.proper_costandard(b) if s == "+" else self.costandard(b)

    def vertex_flag(self, kind, b):
        """certify_flag of the vertex projective (kind 'projective') or
        injective at b, certified once per the signed sections it reads."""
        flavor = "standard" if kind == "projective" else "costandard"
        section = self.signed_standard if kind == "projective" else self.signed_costandard
        key = ("flag", kind, str(b), *(section(c) for c in sorted(self.algebra.vertices)))
        if key not in self._modules:
            M = R.projective(self.algebra, b) if kind == "projective" else R.injective(self.algebra, b)
            self._modules[key] = certify_flag(M, self, flavor)
        return self._modules[key]

    def dual_costandard(self, b):
        """D of the signed costandard at b, over the opposite algebra: the
        signed standard the costandard flag peel searches, formed once per
        module."""
        key = ("dual", self.signed_costandard(b))
        if key not in self._modules:
            self._modules[key] = R.dual(key[1])
        return self._modules[key]

    def hom_dim(self, b, c):
        """dim Hom(signed standard at b, signed costandard at c), solved
        once per pair of modules."""
        key = ("hom", self.signed_standard(b), self.signed_costandard(c))
        if key not in self._modules:
            self._modules[key] = R.hom_dim(*key[1:])
        return self._modules[key]

    def resolution(self, b, max_len):
        """The one minimal projective resolution of the signed standard at
        b, grown in place to at least max_len."""
        key = ("resolution", self.signed_standard(b))
        if key not in self._modules:
            self._modules[key] = R.Resolution(key[1], max_len)
        return self._modules[key].extend(max_len)


def inflate(module, algebra, tmap):
    """Pull a module over a lower-set quotient back to the source algebra."""
    if tmap.source is not algebra:
        raise StratError("truncation map does not match the algebra")
    # kept idempotents act as the identity, which Rep drops
    act = {k: _action_of_combination(module, img) for k, img in enumerate(tmap.images) if img}
    return R.Rep(algebra, module.dims, act)


def _action_of_combination(module, terms):
    """Action matrix of sum c * b_i, over the (i, c) in terms, on a module;
    the terms share one grading."""
    (i, c), *rest = terms
    acc = module.action(i) if c == module.algebra.field.one else module.action(i).scale(c)
    for i, c in rest:
        acc = acc + module.action(i).scale(c)
    return acc


def proper_quotient(quot, stratum, b):
    """The proper standard module at b over a lower quotient: its vertex
    projective P(b) modulo the submodule generated by the columns
    e_v r e_b, for r in the radical of the stratum algebra, the corner of
    quot on the fiber of b.  Returns (module, projection from
    R.projective(quot, b))."""
    corner = quot.corner_positions(stratum.vertices)
    gens = [
        quot.element({corner[k]: c for k, c in r.coeffs.items() if quot.src(corner[k]) == b})
        for r in stratum.radical_basis()
    ]
    P = R.projective(quot, b)
    return R.quotient_rep(P, R.close_spans(P, R.projective_span(quot, b, gens)))


def stratum_algebra(algebra, spec, lam):
    """The corner of the lower truncation at a stratum: its modules realize
    the stratum category."""
    spec.validate(algebra)
    lam = str(lam)
    quot, _ = lower_quotient(algebra, spec, lam)
    return quot.truncate_upper(set(spec.fiber(lam)))


def induce_from_corner(ambient, corner, module):
    """(A e) tensor over the corner e A e, for e the sum of the corner's
    vertex idempotents: the left adjoint of the corner truncation functor.
    The module must live over the given corner algebra."""
    big, relations = _tensor_presentation(ambient, corner, module)
    # The relation span is a submodule already: left multiplication sends
    # the relation at u to the relations at the terms of g.u, and every u
    # with src(u) in the corner is listed, so it is not closed again.
    return R.quotient_rep(big, relations)[0]


def coinduce_from_corner(ambient, corner, module):
    """Right adjoint of the corner truncation: the dual of the induction of
    the dual module over the opposite algebras.  The opposite of a corner
    keeps the ambient's corner selection, in order, so it is the corner of
    the opposite that induction needs."""
    return R.dual(induce_from_corner(ambient.opposite(), corner.opposite(), R.dual(module)))


def restrict(rep, algebra, positions):
    """The module over algebra whose i-th basis element acts as rep's
    positions[i]-th, on rep's spaces at algebra's vertices: rep restricted
    along a corner or lower quotient, given by the positions of its basis
    (Algebra.corner_positions, TruncationMap.keep)."""
    act = {i: rep.act[k] for i, k in enumerate(positions) if k in rep.act}
    return R.Rep(algebra, {v: rep.dims[v] for v in algebra.vertices}, act)


def _tensor_presentation(quot, stratum, module):
    """(A e-bar) tensor_{corner} module as (A e-bar tensor_k module, the
    per-vertex span of the relations it is divided by).  The first is the
    free module with module.dims[v] copies of A e_v, on the pairs (u, j);
    the relation (u * abar) tensor w - u tensor (abar . w), for abar a
    non-idempotent basis element of the corner, lies at tgt(u)."""
    f = quot.field
    big = R.free_module(quot, module.dims)
    _, pos = R._free_basis(quot, module.dims)
    corner_sel = quot.corner_positions(stratum.vertices)
    idem_small = set(stratum.idempotent_index.values())
    from_src = {}  # vertex -> the basis elements with that source, ascending
    for u, b in enumerate(quot.basis):
        from_src.setdefault(b.src, []).append(u)
    spans = {v: [] for v in quot.vertices}
    for i_small in range(stratum.dim):
        if i_small in idem_small:
            continue
        a_big = corner_sel[i_small]
        a_small_mat = module.action(i_small)
        for u in from_src.get(quot.tgt(a_big), ()):
            v = quot.tgt(u)
            for j in range(module.dims[quot.src(a_big)]):
                col = [f.zero] * big.dims[v]
                for m, c in quot.mult.get((u, a_big), ()):
                    col[pos[(m, j)]] = f.add(col[pos[(m, j)]], c)
                for jj, c in enumerate(a_small_mat.column(j)):
                    col[pos[(u, jj)]] = f.sub(col[pos[(u, jj)]], c)
                if any(not f.is_zero(x) for x in col):
                    spans[v].append(col)
    return big, {v: Matrix.from_columns(f, cs, nrows=big.dims[v]) for v, cs in spans.items()}


def standard_family(algebra, spec):
    """The standard family view of (algebra, spec)."""
    return StandardFamily(algebra, spec)


# -- flags ---------------------------------------------------------------


class FlagCertificate:
    """An ordered filtration certificate.

    sections: labels bottom to top; the m-th section of the filtration
    0 = V_0 < V_1 < ... < V_n = V is isomorphic to the signed standard
    (flavor 'standard') or signed costandard (flavor 'costandard') at
    sections[m-1].  witnesses: per level, the per-vertex span matrices of
    V_m inside V.  end() forms the inclusion into V of the bottom section,
    from the family's signed standard module itself (flavor 'standard'),
    or the projection of V onto the top section, onto the family's signed
    costandard module itself (flavor 'costandard').
    """

    def __init__(self, flavor, sections, witnesses, end):
        self.flavor = flavor
        self.sections = sections
        self.witnesses = witnesses
        self.end = end

    def multiplicities(self):
        out = {}
        for b in self.sections:
            out[b] = out.get(b, 0) + 1
        return out

    def __len__(self):
        return len(self.sections)

    def to_json(self, field):
        return {
            "flavor": self.flavor,
            "sections": list(self.sections),
            "witnesses": [
                {
                    str(v): [[field.to_str(x) for x in row] for row in m.rows]
                    for v, m in level.items()
                }
                for level in self.witnesses
            ],
        }


class FlagFailure:
    def __init__(self, flavor, stuck, peeled):
        self.flavor = flavor
        self.stuck = stuck  # the subquotient the peel got stuck on
        self.peeled = peeled

    def __bool__(self):
        return False


def certify_flag(module, family, flavor):
    """Greedy constructive search for a flag of the family's signed
    standard/costandard modules.

    flavor 'standard': peel epimorphisms onto signed standards from the
    top, choosing head constituents whose stratum is minimal first (such a
    section can always be rotated to the top of an existing flag).
    flavor 'costandard': the same peel on the dual module, against the
    duals of the signed costandards, read back through the duality.
    Returns a verified FlagCertificate or a FlagFailure with the stuck
    subquotient.
    """
    if flavor == "standard":
        return _peel_standard(module, family.spec, family.signed_standard)
    if flavor == "costandard":
        return _costandard_from_dual(module, family)
    raise StratError(f"unknown flavor {flavor!r}")


def _sorted_candidates(spec, constituents):
    """Labels ordered so that minimal strata come first, then by name."""
    order = spec.poset.linear_extension({spec.stratum_of[b] for b in constituents})
    rank = {lam: i for i, lam in enumerate(order)}
    return sorted(constituents, key=lambda b: (rank[spec.stratum_of[b]], b))


def _peel_standard(module, spec, section):
    """The flag of the modules section(b) that peels epimorphisms from the
    top, as certify_flag describes."""
    cur = module
    sections = []
    # chain of kernels; witnesses reconstructed from composed inclusions
    incl_chain = []
    while not cur.is_zero():
        for label in _sorted_candidates(spec, list(R.head_constituents(cur))):
            phi = _find_epi(cur, section(label))
            if phi is not None:
                break
        else:
            return FlagFailure("standard", cur, list(reversed(sections)))
        K, incl = R.kernel_sub(phi)
        sections.append(label)
        incl_chain.append(incl)
        cur = K
    sections = list(reversed(sections))
    witnesses, chain = _witnesses_from_kernel_chain(module, incl_chain)
    return FlagCertificate("standard", sections, witnesses, lambda: _bottom_inclusion(phi, chain))


def _bottom_inclusion(last, chain):
    """The inclusion of the bottom section from the module the last peel
    step mapped it onto: the inverse of that isomorphism, then the chain
    of kernel inclusions (None when the bottom section is everything)."""
    f = last.source.algebra.field
    inverse = R.RepMap(last.target, last.source, {
        v: m.solve(Matrix.identity(f, m.nrows)) for v, m in last.mats.items() if m.nrows
    })
    return inverse if chain is None else chain.compose(inverse)


def _costandard_from_dual(module, family):
    """The costandard flag of module as the dual of a standard flag of
    D(module) = Hom_k(module, k) over the opposite algebra: D sends the
    signed costandards to the signed standards of the opposite, so the
    sections come back reversed, each level is the annihilator of a
    level of the dual, and the top projection is the transpose of the
    dual's bottom inclusion."""
    dual = _peel_standard(R.dual(module), family.spec, family.dual_costandard)
    if not dual:
        return FlagFailure("costandard", R.dual(dual.stuck), dual.peeled[::-1])
    f = module.algebra.field
    # the dual's levels 0 = W_0 < ... < W_{n-1}; V_m annihilates W_{n-m}
    levels = [{v: Matrix.zero(f, d, 0) for v, d in module.dims.items()}, *dual.witnesses][: len(dual)]
    witnesses = [{v: m.transpose().kernel() for v, m in level.items()} for level in reversed(levels)]
    sections = dual.sections[::-1]

    def end():
        top = family.signed_costandard(sections[-1])
        return R.RepMap(module, top, {v: m.transpose() for v, m in dual.end().mats.items()})

    return FlagCertificate("costandard", sections, witnesses, end)


def _find_epi(module, target):
    """A surjection module ->> target from the Hom basis, or None.

    The head of a signed standard is simple, so some basis element is
    onto whenever any combination is.
    """
    return next((phi for phi in R.hom_space(module, target) if phi.is_surjective()), None)


def _witnesses_from_kernel_chain(module, incl_chain):
    """Per-level span matrices of the filtration from the kernel chain, and
    the inclusion of the bottom section V_1 (None when V_1 = V).

    incl_chain[m] includes the kernel after peeling the (m+1)-st top
    section.  The filtration bottom-up: V_m = image of the composite of the
    first (n - m) inclusions.
    """
    f = module.algebra.field
    comps = []
    comp = None
    for incl in incl_chain:
        comp = incl if comp is None else comp.compose(incl)
        comps.append(comp)
    n = len(incl_chain)
    witnesses = []
    # V_m for 1 <= m < n is the image of the first (n - m) inclusions
    for m in range(n - 2, -1, -1):
        witnesses.append({v: comps[m].mats[v].column_space_basis() for v in module.algebra.vertices})
    witnesses.append({v: Matrix.identity(f, module.dims[v]) for v in module.algebra.vertices})
    return witnesses, comps[n - 2] if n > 1 else None


# -- axiom verification ----------------------------------------------------


def check_stratified(algebra, spec, with_ext=True, with_witnesses=False):
    """Verdict report for the stratified axioms under spec's signs.

    Certifies a signed-standard flag of every vertex projective with
    sections in strata >= the vertex's stratum, dually for injectives,
    cross-checks flag multiplicities against the orthogonality dimensions,
    and (optionally) checks Ext^1(signed standard, signed costandard) = 0.
    The flags and the Hom dimensions are the family's vertex_flag and
    hom_dim memos, and Ext^1 is read off the family's resolution of each
    signed standard.  With with_witnesses=True the reports embed the full
    certificates as nested span matrices.
    """
    rep = Report(command="check_stratified")
    fam = standard_family(algebra, spec)
    rep.data["signs"] = dict(spec.signs)
    ok_all = True
    for b in sorted(algebra.vertices):
        for c in sorted(algebra.vertices):
            d = fam.hom_dim(b, c)
            want = 1 if b == c else 0
            if d != want:
                rep.add(f"hom_orthogonality[{b},{c}]", False, dim=d, want=want)
                ok_all = False
    # The verdict rests on the constructive certificates: the greedy peel
    # is complete for modules that do carry a flag, and a certificate per
    # projective with sections in strata above its own is literally the
    # axiom.  The orthogonality dimensions (which any flag is forced to
    # realize once the whole axiom holds) are carried as cross-check and
    # witness data.
    for kind, flavor in (("projective", "standard"), ("injective", "costandard")):
        for b in sorted(algebra.vertices):
            lam = spec.stratum_of[b]
            # Hom(A e_b, X) = e_b X and Hom(X, I(b)) = D(e_b X): the
            # forced multiplicities are dimensions at b
            if kind == "projective":
                forced = {c: fam.signed_costandard(c).dims[b] for c in algebra.vertices}
                section = fam.signed_standard
            else:
                forced = {c: fam.signed_standard(c).dims[b] for c in algebra.vertices}
                section = fam.signed_costandard
            forced_total = sum(forced[c] * section(c).total_dim() for c in algebra.vertices)
            cert = fam.vertex_flag(kind, b)
            if not isinstance(cert, FlagCertificate):
                M = R.projective(algebra, b) if kind == "projective" else R.injective(algebra, b)
                rep.add(
                    f"{kind}_flag[{b}]",
                    False,
                    witness={
                        "reason": f"no signed {flavor} flag",
                        "stuck_dims": cert.stuck.dim_vector(),
                        "peeled": cert.peeled,
                        "forced_multiplicities": forced,
                        "forced_total": forced_total,
                        f"{kind}_dim": M.total_dim(),
                    },
                )
                ok_all = False
                continue
            sections_ok = all(spec.poset.leq(lam, spec.stratum_of[c]) for c in cert.sections)
            mult_ok = cert.multiplicities() == {c: n for c, n in forced.items() if n}
            details = {
                "sections": cert.sections,
                "forced_multiplicities": {c: n for c, n in forced.items() if n},
            }
            if with_witnesses:
                details["certificate"] = cert.to_json(algebra.field)
            rep.add(f"{kind}_flag[{b}]", sections_ok and mult_ok, **details)
            ok_all = ok_all and sections_ok and mult_ok
    if with_ext and ok_all:
        for b in sorted(algebra.vertices):
            res = fam.resolution(b, 2)
            for c in sorted(algebra.vertices):
                d = R.ext_dims(res, fam.signed_costandard(c), 1)[1]
                rep.add(f"ext1_vanishing[{b},{c}]", d == 0, dim=d)
    rep.data["verdict"] = rep.ok
    return rep


def bgg_reciprocity(algebra, spec):
    """(P(b) : std_eps(c)) = [costd_eps(c) : L(b)] and
    (I(b) : costd_eps(c)) = [std_eps(c) : L(b)], via certified flags: the
    family's vertex_flag memo, which check_stratified fills."""
    rep = Report(command="bgg_reciprocity")
    fam = standard_family(algebra, spec)
    for kind, tag, dual_section in (
        ("projective", "P", fam.signed_costandard),
        ("injective", "I", fam.signed_standard),
    ):
        for b in sorted(algebra.vertices):
            cert = fam.vertex_flag(kind, b)
            if not isinstance(cert, FlagCertificate):
                rep.add(f"{kind}_flag[{b}]", False)
                continue
            mults = cert.multiplicities()
            for c in sorted(algebra.vertices):
                lhs = mults.get(c, 0)
                rhs = dual_section(c).dims[b]
                rep.add(f"reciprocity_{tag}[{b},{c}]", lhs == rhs, flag=lhs, comp_mult=rhs)
    return rep


def check_fully_stratified(algebra, spec):
    """Fully stratified: plus-stratified, and every standard has a proper
    standard flag with sections in its own stratum (with the dual
    statement cross-checked)."""
    rep = Report(command="check_fully_stratified")
    plus = spec.with_signs({e: "+" for e in spec.poset.elements})
    sub = check_stratified(algebra, plus, with_ext=False)
    rep.add("plus_stratified", sub.ok)
    fams = {
        "standard": standard_family(algebra, spec.with_signs({e: "-" for e in spec.poset.elements})),
        "costandard": standard_family(algebra, plus),
    }
    for b in sorted(algebra.vertices):
        for flavor, fam in fams.items():
            cert = certify_flag(getattr(fam, flavor)(b), fam, flavor)
            sections = cert.sections if isinstance(cert, FlagCertificate) else None
            ok = sections is not None and all(spec.stratum_of[c] == spec.stratum_of[b] for c in sections)
            rep.add(f"{flavor}_has_proper_flag[{b}]", ok, sections=sections)
    return rep


def check_simple_strata(algebra, spec):
    """All strata one-dimensional (the highest-weight situation)."""
    rep = Report(command="check_simple_strata")
    for lam in sorted(set(spec.stratum_of.values())):
        s = stratum_algebra(algebra, spec, lam)
        rep.add(f"stratum_simple[{lam}]", s.dim == 1 and len(s.vertices) == 1, dim=s.dim)
    return rep


def ext_orthogonality(algebra, spec, nmax):
    """dim Ext^n(std_eps(b), costd_eps(c)) = delta_{b,c} delta_{n,0}, read
    off the family's resolution of std_eps(b), grown to nmax + 1."""
    rep = Report(command="ext_orthogonality")
    fam = standard_family(algebra, spec)
    for b in sorted(algebra.vertices):
        res = fam.resolution(b, nmax + 1)
        for c in sorted(algebra.vertices):
            dims = R.ext_dims(res, fam.signed_costandard(c), nmax)
            want = [1 if (b == c and n == 0) else 0 for n in range(nmax + 1)]
            rep.add(f"ext_orthogonality[{b},{c}]", dims == want, dims=dims)
    return rep
