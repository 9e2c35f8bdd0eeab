"""Independent oracles used to pin expected values in the test suite.

These deliberately avoid the code paths they check: the extension-group
oracle parametrizes upper-triangular module structures directly from the
quiver presentation instead of using projective resolutions, and the
dimension oracle counts free paths modulo the relation ideal instead of
using tip reduction.  The references further down are earlier
constructions of the package, kept unchanged to gate the ones that
replaced them.
"""

from fractions import Fraction
from itertools import chain
from math import gcd
from types import SimpleNamespace

from qstrat import rep as R
from qstrat import strat as S
from qstrat import tilting as TL
from qstrat.algebra import AlgebraError, Arrow, QuiverPresentation, build_algebra
from qstrat.based import BasedError
from qstrat.exactla import QQ, Matrix, independent, roots, span_rref
from qstrat.report import Report
from qstrat.rep import (
    Resolution,
    RepError,
    ext1_with_cocycles,
    hom_coords,
    hom_space,
    identity_map,
    lift,
    syzygy,
)
from qstrat.strat import (
    FlagFailure,
    Poset,
    StratError,
    StratSpec,
    _sorted_candidates,
    coinduce_from_corner,
    induce_from_corner,
    inflate,
    lower_quotient,
    stratum_algebra,
)
from qstrat.tilting import ringel_dual, ringel_image


def _arrow_matrices(rep):
    """Matrices of the arrows of a presented algebra on a module."""
    alg = rep.algebra
    out = {}
    for k, b in enumerate(alg.basis):
        if b.word and len(b.word) == 1:
            out[b.word[0]] = rep.action(k)
    return out


def _path_matrix(arrows, pres, rep, word):
    """Action of a free path on a module (rightmost arrow first)."""
    alg = rep.algebra
    f = alg.field
    src, tgt = pres.path_signature(word)
    m = Matrix.identity(f, rep.dims[src])
    for name in reversed(word):
        m = arrows[name] * m
    return m


def ext1_oracle(m, n):
    """dim Ext^1(m, n) by counting upper-triangular module structures.

    A module structure on n + m with n a submodule and m the quotient is a
    choice of off-diagonal blocks xi_a per arrow satisfying the linearized
    relations; coboundaries come from conjugating by unipotent maps.
    """
    alg = m.algebra
    pres = alg.presentation
    if pres is None:
        raise ValueError("oracle needs a presented algebra")
    f = alg.field
    arrows_m = _arrow_matrices(m)
    arrows_n = _arrow_matrices(n)
    arrow_by_name = {a.name: a for a in pres.arrows}
    names = [a.name for a in pres.arrows]
    offs = {}
    pos = 0
    for name in names:
        a = arrow_by_name[name]
        offs[name] = pos
        pos += m.dims[a.src] * n.dims[a.tgt]
    nun = pos
    if nun == 0:
        return 0

    def xi_index(name, r, c):
        a = arrow_by_name[name]
        return offs[name] + r * m.dims[a.src] + c

    rows = []
    for rel in pres.relations:
        src, tgt = pres.path_signature(rel[0][1])
        dn_t, dm_s = n.dims[tgt], m.dims[src]
        if dn_t == 0 or dm_s == 0:
            continue
        # coefficient of xi in the relation derivative
        block_rows = [[dict() for _ in range(dm_s)] for _ in range(dn_t)]
        for coeff, word in rel:
            k = len(word)
            for pos_in_word in range(k):
                left = word[:pos_in_word]
                mid = word[pos_in_word]
                right = word[pos_in_word + 1:]
                a = arrow_by_name[mid]
                if m.dims[a.src] == 0 or n.dims[a.tgt] == 0:
                    continue
                if left:
                    lsrc, _ = pres.path_signature(left)
                    L = _path_matrix(arrows_n, pres, n, left)
                else:
                    L = Matrix.identity(f, n.dims[tgt])
                if right:
                    RR = _path_matrix(arrows_m, pres, m, right)
                else:
                    RR = Matrix.identity(f, m.dims[src])
                # contribution L . xi_a . RR
                for r in range(dn_t):
                    for c in range(dm_s):
                        for s in range(n.dims[a.tgt]):
                            la = L.rows[r][s]
                            if f.is_zero(la):
                                continue
                            for t in range(m.dims[a.src]):
                                rb = RR.rows[t][c]
                                if f.is_zero(rb):
                                    continue
                                idx = xi_index(mid, s, t)
                                cell = block_rows[r][c]
                                cell[idx] = f.add(
                                    cell.get(idx, f.zero), f.mul(coeff, f.mul(la, rb))
                                )
        for r in range(dn_t):
            for c in range(dm_s):
                if block_rows[r][c]:
                    row = [f.zero] * nun
                    for idx, val in block_rows[r][c].items():
                        row[idx] = val
                    rows.append(row)
    if rows:
        cocycles = Matrix(f, rows, nun).kernel()
        z_dim = cocycles.ncols
    else:
        z_dim = nun
    # coboundaries: xi_a = rho_n(a) . h_{src(a)} - h_{tgt(a)} . rho_m(a),
    # one generator per matrix entry h_v[r, c]
    cob_cols = []
    for v in alg.vertices:
        for r in range(n.dims[v]):
            for c in range(m.dims[v]):
                vec = [f.zero] * nun
                for name in names:
                    a = arrow_by_name[name]
                    if m.dims[a.src] == 0 or n.dims[a.tgt] == 0:
                        continue
                    if a.src == v:
                        Na = arrows_n[name]
                        for s in range(n.dims[a.tgt]):
                            coeffv = Na.rows[s][r]
                            if not f.is_zero(coeffv):
                                idx = xi_index(name, s, c)
                                vec[idx] = f.add(vec[idx], coeffv)
                    if a.tgt == v:
                        Ma = arrows_m[name]
                        for t in range(m.dims[a.src]):
                            coeffv = Ma.rows[c][t]
                            if not f.is_zero(coeffv):
                                idx = xi_index(name, r, t)
                                vec[idx] = f.sub(vec[idx], coeffv)
                if any(not f.is_zero(x) for x in vec):
                    cob_cols.append(vec)
    b_rank = sum(
        1
        for row in span_rref(f, cob_cols, nun).rows
        if any(not f.is_zero(x) for x in row)
    )
    return z_dim - b_rank


def path_count_dimension_oracle(pres, max_len):
    """Dimension of the quotient path algebra by brute force: all free
    composable paths up to the length bound, modulo the span of all
    two-sided multiples of the relations.  Valid for length-homogeneous
    relations (every path in one relation has the same length)."""
    f = pres.field
    for rel in pres.relations:
        lengths = {len(w) for _, w in rel}
        if len(lengths) != 1:
            raise ValueError("dimension oracle needs length-homogeneous relations")
    arrow = {a.name: a for a in pres.arrows}
    words = {0: [((), v) for v in pres.vertices]}
    for length in range(1, max_len + 1):
        cur = []
        if length == 1:
            cur = [((a.name,), a.src) for a in pres.arrows]
        else:
            for w, s in words[length - 1]:
                for a in pres.arrows:
                    if a.tgt == s:
                        cur.append((w + (a.name,), a.src))
        words[length] = cur
    all_words = [w for length in sorted(words) for w, _ in words[length]]
    index = {w: i for i, w in enumerate(all_words)}
    vecs = []
    for rel in pres.relations:
        rel_len = len(rel[0][1])
        rsrc, rtgt = pres.path_signature(rel[0][1])
        for llen in range(0, max_len - rel_len + 1):
            lefts = [w for w, s in words[llen] if (not w and s == rtgt) or (w and arrow[w[-1]].src == rtgt)]
            for rlen in range(0, max_len - rel_len - llen + 1):
                rights = [
                    w
                    for w, s in words[rlen]
                    if (not w and s == rsrc) or (w and arrow[w[0]].tgt == rsrc)
                ]
                for lw in lefts:
                    for rw in rights:
                        vec = [f.zero] * len(all_words)
                        for coeff, body in rel:
                            full = lw + body + rw
                            vec[index[full]] = f.add(vec[index[full]], coeff)
                        vecs.append(vec)
    rank = sum(
        1
        for row in span_rref(f, vecs, len(all_words)).rows
        if any(not f.is_zero(x) for x in row)
    )
    return len(all_words) - rank


# The dense eliminations Matrix.rref ran before the sparse-aware kernel and
# its memo, kept unchanged as the reference the kernel is tested against.
# Each takes the Matrix to reduce and returns (R, pivots).


def reference_rref_rational(self):
    # Scale every row to integers once, then eliminate with integer
    # cross-multiplication; gcd reduction keeps entries small.
    n, m = self.nrows, self.ncols
    rows = []
    for r in self.rows:
        den = 1
        for a in r:
            den = den * a.denominator // gcd(den, a.denominator)
        ir = [a.numerator * (den // a.denominator) for a in r]
        g = 0
        for a in ir:
            g = gcd(g, a)
        if g > 1:
            ir = [a // g for a in ir]
        rows.append(ir)
    pivots = []
    piv_r = 0
    for col in range(m):
        sel = None
        for i in range(piv_r, n):
            if rows[i][col] != 0:
                sel = i
                break
        if sel is None:
            continue
        rows[piv_r], rows[sel] = rows[sel], rows[piv_r]
        prow = rows[piv_r]
        p = prow[col]
        for i in range(piv_r + 1, n):
            ri = rows[i]
            a = ri[col]
            if a == 0:
                continue
            g = gcd(p, a)
            cp, ca = p // g, a // g
            for j in range(col, m):
                ri[j] = cp * ri[j] - ca * prow[j]
            g2 = 0
            for v in ri:
                g2 = gcd(g2, v)
            if g2 > 1:
                for j in range(m):
                    ri[j] //= g2
        pivots.append(col)
        piv_r += 1
    # Back-substitute upward, still over the integers.
    for k in range(len(pivots) - 1, -1, -1):
        col = pivots[k]
        prow = rows[k]
        p = prow[col]
        for i in range(k):
            ri = rows[i]
            a = ri[col]
            if a == 0:
                continue
            g = gcd(p, a)
            cp, ca = p // g, a // g
            for j in range(m):
                ri[j] = cp * ri[j] - ca * prow[j]
    out = []
    for k in range(n):
        if k < len(pivots):
            p = rows[k][pivots[k]]
            out.append([Fraction(v, p) if v % p else v // p for v in rows[k]])
        else:
            out.append([0] * m)
    R = Matrix(QQ, out, m)
    R._rref = (R, list(pivots))
    return (R, list(pivots))


def reference_rref_modular(self):
    p = self.field.p
    n, m = self.nrows, self.ncols
    rows = [[a % p for a in r] for r in self.rows]
    pivots = []
    piv_r = 0
    for col in range(m):
        sel = None
        for i in range(piv_r, n):
            if rows[i][col] % p != 0:
                sel = i
                break
        if sel is None:
            continue
        rows[piv_r], rows[sel] = rows[sel], rows[piv_r]
        inv = pow(rows[piv_r][col], -1, p)
        rows[piv_r] = [(v * inv) % p for v in rows[piv_r]]
        prow = rows[piv_r]
        for i in range(n):
            if i == piv_r:
                continue
            a = rows[i][col]
            if a:
                ri = rows[i]
                for j in range(col, m):
                    ri[j] = (ri[j] - a * prow[j]) % p
        pivots.append(col)
        piv_r += 1
    R = Matrix(self.field, rows, m)
    R._rref = (R, list(pivots))
    return (R, list(pivots))


# The Ext and splitting constructions rep ran before Hom out of a free
# module was read off by Yoneda, and the dense ideal span Algebra ran before
# the blockwise one, kept unchanged as references.  reference_ideal_span
# takes the Algebra as self.


def reference_ext_dims(m, n, nmax, resolution=None):
    """dim Ext^k(m, n) for k = 0..nmax via a minimal projective resolution."""
    res = resolution if resolution is not None else Resolution(m, nmax + 1)
    terms = res.terms
    f = m.algebra.field
    hom_bases = [hom_space(P, n) for P in terms]
    hom_dims = [len(b) for b in hom_bases]
    induced = []
    for k in range(1, len(terms)):
        d = res.maps[k]
        rows = hom_coords([phi.compose(d) for phi in hom_bases[k - 1]], hom_bases[k])
        if rows:
            induced.append(Matrix(f, rows, hom_dims[k]).transpose())
        else:
            induced.append(Matrix.zero(f, hom_dims[k], 0))
    out = []
    for k in range(nmax + 1):
        if k >= len(terms):
            out.append(0)
            continue
        img_rank = induced[k - 1].rank() if k >= 1 else 0
        if k < len(induced):
            ker_dim = hom_dims[k] - induced[k].rank()
        elif res.terminated:
            ker_dim = hom_dims[k]
        else:
            raise RepError("resolution too short for requested Ext degree")
        out.append(ker_dim - img_rank)
    return out


def unshared_resolution(rep, max_len):
    """The minimal projective resolution Resolution(rep, max_len) should
    be, from a direct syzygy call per step: no memo, so no term is taken
    from another module's resolution."""
    res = SimpleNamespace(rep=rep, terms=[], term_labels=[], maps=[], syzygies=[], terminated=False)
    cur, prev_incl = rep, None
    while len(res.terms) <= max_len:
        if cur.is_zero():
            res.terminated = True
            break
        K, incl, P, cover, labels = syzygy(cur)
        res.maps.append(cover if prev_incl is None else prev_incl.compose(cover))
        res.terms.append(P)
        res.term_labels.append(labels)
        res.syzygies.append(K)
        cur, prev_incl = K, incl
    return res


def reference_ext1_with_cocycles(m, n):
    """dim Ext^1(m, n) plus explicit cocycle representatives.

    Returns (dim, cocycles, context): cocycles are RepMaps from the first
    syzygy K of m into n spanning Ext^1 modulo coboundaries; context is
    (K, incl, P0, cover) from the minimal presentation of m.
    """
    K, incl, P0, cover, _ = syzygy(m)
    f = m.algebra.field
    hom_K = hom_space(K, n)
    if not hom_K:
        return 0, [], (K, incl, P0, cover)
    hom_P = hom_space(P0, n)
    img_rows = hom_coords([phi.compose(incl) for phi in hom_P], hom_K)
    d = len(hom_K)
    units = [[f.one if i == j else f.zero for i in range(d)] for j in range(d)]
    chosen = [hom_K[j] for j in independent(f, units, d, base=img_rows)]
    return len(chosen), chosen, (K, incl, P0, cover)


def find_retraction(incl):
    """A map r with r . incl = id, or None."""
    pool = hom_space(incl.target, incl.source)
    got = lift(pool, lambda r: r.compose(incl), [identity_map(incl.source)], hom_space(incl.source, incl.source))
    return None if got is None else combination(pool, got[0], incl.target, incl.source)


def combination(pool, coords, source, target):
    """The map source -> target with the given coordinates over the pool."""
    return sum((phi.scale(c) for c, phi in zip(coords, pool)), zero_map(source, target))


def reference_ideal_span(self, kill):
    """Row-space rref of the two-sided ideal generated by the given
    vertex idempotents, in basis coordinates."""
    f = self.field
    vecs = []
    for c in kill:
        ec = self.idempotent_index[c]
        left = [k for k in range(self.dim) if self.src(k) == c]   # basis of A e_c
        right = [l for l in range(self.dim) if self.tgt(l) == c]  # basis of e_c A
        vecs.append(basis_element(self, ec).dense())
        for k in left:
            for l in right:
                prod = self.multiply(basis_element(self, k), basis_element(self, l))
                if not prod.is_zero():
                    vecs.append(prod.dense())
        for k in left:
            vecs.append(basis_element(self, k).dense())
        for l in right:
            vecs.append(basis_element(self, l).dense())
    return span_rref(f, vecs, self.dim)


def _vstack(a, b):
    return Matrix(a.field, a.rows + b.rows, a.ncols)


def reference_direct_sum(parts):
    """Direct sum with inclusion and projection maps, stacked from zero
    blocks."""
    if not parts:
        raise RepError("direct_sum of no parts")
    alg = parts[0].algebra
    f = alg.field
    dims = {v: sum(p.dims[v] for p in parts) for v in alg.vertices}
    keys = set()
    for p in parts:
        keys |= set(p.act)
    act = {}
    for k in keys:
        b = alg.basis[k]
        strips = []
        for bi, p in enumerate(parts):
            blk = p.action(k)
            strip = None
            for bj, q in enumerate(parts):
                piece = blk if bj == bi else Matrix.zero(f, blk.nrows, q.dims[b.src])
                strip = piece if strip is None else strip.hstack(piece)
            strips.append(strip)
        m = strips[0]
        for s in strips[1:]:
            m = _vstack(m, s)
        act[k] = m
    total = R.Rep(alg, dims, act)
    incls, projs = [], []
    for i, p in enumerate(parts):
        inc = {}
        for v in alg.vertices:
            before = sum(q.dims[v] for q in parts[:i])
            after = dims[v] - before - p.dims[v]
            eye = Matrix.identity(f, p.dims[v])
            inc[v] = _vstack(_vstack(Matrix.zero(f, before, p.dims[v]), eye), Matrix.zero(f, after, p.dims[v]))
        incls.append(R.RepMap(p, total, inc))
        projs.append(R.RepMap(total, p, {v: inc[v].transpose() for v in inc}))
    return total, incls, projs


def reference_extension_middle(m, n, cocycle, context):
    """rep.extension_middle as it was when it also built the maps of the
    extension: (E, incl_n, proj_m, split), incl_n : n -> E and
    proj_m : E -> m.  The sum n + P0 and its maps come from
    reference_direct_sum, as they came from rep.direct_sum then."""
    K, incl, P0, cover, hom_K, coboundaries = context
    if cocycle.is_zero():
        raise R.ZeroClass("extension_middle needs a nonzero cocycle")
    alg = m.algebra
    f = alg.field
    total, incls, projs = reference_direct_sum([n, P0])
    inc_n, _ = incls
    _, pr_P = projs
    graph = {}
    for v in alg.vertices:
        pairs = zip(cocycle.mats[v].columns(), incl.mats[v].columns())
        graph[v] = Matrix.from_columns(f, [t + [f.neg(x) for x in b] for t, b in pairs], nrows=total.dims[v])
    E, proj = R.quotient_rep(total, graph)
    incl_n = proj.compose(inc_n)
    mats = {}
    for v in alg.vertices:
        dE = E.dims[v]
        if dE == 0:
            mats[v] = Matrix.zero(f, m.dims[v], 0)
            continue
        pre = proj.mats[v].solve(Matrix.identity(f, dE))
        if pre is None:
            raise RepError("quotient projection not surjective")
        mats[v] = cover.mats[v] * (pr_P.mats[v] * pre)
    proj_m = R.RepMap(E, m, mats)
    coords = hom_coords([cocycle], hom_K)[0]
    split = not independent(f, [coords], len(hom_K), base=coboundaries)
    return E, incl_n, proj_m, split


def reference_basis_locator(rd):
    """Map each dual-algebra basis index to (i, j, t) in hom_bases, counted
    off the dual's basis one grade at a time."""
    counters = {}
    locator = {}
    pos = {n: i for i, n in enumerate(rd.names)}
    for k, be in enumerate(rd.dual_algebra.basis):
        i, j = pos[be.tgt], pos[be.src]
        t = counters.get((i, j), 0)
        counters[(i, j)] = t + 1
        locator[k] = (i, j, t)
    return locator


def reference_ringel_image(rd, v):
    """The hom-functor image Hom(T, v) as a module over the dual algebra."""
    f = rd.dual_algebra.field
    locator = reference_basis_locator(rd)
    bases = {n: R.hom_space(rd.tilt.module(n), v) for n in rd.names}
    dims = {n: len(bases[n]) for n in rd.names}
    act = {}
    for k in range(rd.dual_algebra.dim):
        be = rd.dual_algebra.basis[k]
        bt, bs = be.tgt, be.src  # x : T_bt -> T_bs acts e_bs(Fv) -> e_bt(Fv)
        if dims[bt] == 0 or dims[bs] == 0:
            continue
        i, j, t = locator[k]
        x = rd.hom_bases[(i, j)][t]
        cols = R.hom_coords([g.compose(x) for g in bases[bs]], bases[bt])
        m = Matrix.from_columns(f, cols, nrows=dims[bt])
        if not m.is_zero():
            act[k] = m
    return R.Rep(rd.dual_algebra, dims, act)


def reference_ringel_coimage(rd, v):
    """The dual-hom image (Hom(v, T))^* as a module over the dual algebra."""
    f = rd.dual_algebra.field
    locator = reference_basis_locator(rd)
    bases = {n: R.hom_space(v, rd.tilt.module(n)) for n in rd.names}
    dims = {n: len(bases[n]) for n in rd.names}
    act = {}
    for k in range(rd.dual_algebra.dim):
        be = rd.dual_algebra.basis[k]
        bt, bs = be.tgt, be.src
        if dims[bt] == 0 or dims[bs] == 0:
            continue
        i, j, t = locator[k]
        x = rd.hom_bases[(i, j)][t]
        rows = R.hom_coords([x.compose(g) for g in bases[bt]], bases[bs])
        m = Matrix(f, rows, dims[bs])
        if not m.is_zero():
            act[k] = m
    return R.Rep(rd.dual_algebra, dims, act)


def _rebase_by_name(target_algebra, module):
    """View a module over an algebra with identical basis names (e.g. the
    opposite of a corner vs the corner of an opposite) as a module over
    the target algebra."""
    if module.algebra is target_algebra:
        return module
    name_to_idx = {b.name: i for i, b in enumerate(target_algebra.basis)}
    act = {}
    for k, m in module.act.items():
        act[name_to_idx[module.algebra.basis[k].name]] = m
    return R.Rep(target_algebra, module.dims, act)


def reference_coinduce_from_corner(ambient, corner, module):
    """Right adjoint of the corner truncation: realized as the dual of the
    induction of the dual module over the opposite algebras."""
    amb_op = ambient.opposite()
    corner_op = amb_op.truncate_upper(set(corner.vertices))
    rebased = _rebase_by_name(corner_op, R.dual(module))
    return R.dual(S.induce_from_corner(amb_op, corner_op, rebased))


def reference_standardize(algebra, spec, lam, stratum_module):
    quot, tmap = S.lower_quotient(algebra, spec, lam)
    stratum = quot.truncate_upper(set(spec.fiber(lam)))
    small = S.induce_from_corner(quot, stratum, _rebase_by_name(stratum, stratum_module))
    return S.inflate(small, algebra, tmap)


def reference_costandardize(algebra, spec, lam, stratum_module):
    """Right adjoint of the stratum quotient functor: the dual of the
    standardization of the dual module over the opposite algebra."""
    lam = str(lam)
    opp = algebra.opposite()
    dual_mod = R.dual(stratum_module)
    stratum_opp = S.stratum_algebra(opp, spec, lam)
    out_opp = reference_standardize(opp, spec, lam, _rebase_by_name(stratum_opp, dual_mod))
    return R.dual(out_opp)


def reference_family_module(algebra, spec, b, kind):
    """A standard-family module as it was built with a second lower
    quotient of the opposite algebra for the proper costandard."""
    lam = spec.stratum_of[b]
    alg = algebra.opposite() if kind == "proper_costandard" else algebra
    quot, tmap = S.lower_quotient(alg, spec, lam)
    if kind == "standard":
        return S.inflate(R.projective(quot, b), alg, tmap)
    if kind == "costandard":
        return S.inflate(R.injective(quot, b), alg, tmap)
    proper = S.inflate(S.proper_quotient(quot, quot.truncate_upper(spec.fiber(lam)), b)[0], alg, tmap)
    return proper if kind == "proper_standard" else R.dual(proper)


# The radical, head and socle constructions rep built before constituents
# and locality were read off ranks, kept unchanged as references: the
# submodule and quotient they build, the End algebra split, the cover read
# through the head module.


def radical_sub(rep):
    """rad(A) . m as a submodule, with its inclusion."""
    alg = rep.algebra
    f = alg.field
    cols = {v: [] for v in alg.vertices}
    for r in alg.radical_basis():
        for (tv, _sv), mat in rep.act_element(r).items():
            for j in range(mat.ncols):
                col = mat.column(j)
                if any(not f.is_zero(x) for x in col):
                    cols[tv].append(col)
    spans = {v: Matrix.from_columns(f, cs, nrows=rep.dims[v]) for v, cs in cols.items()}
    return R.sub_rep(rep, spans)


def head(rep):
    """rep / rad(rep) with the projection map."""
    _, incl = radical_sub(rep)
    return R.quotient_rep(rep, {v: incl.mats[v] for v in rep.algebra.vertices})


def socle_sub(rep):
    """Joint kernel of the radical action, with its inclusion."""
    alg = rep.algebra
    f = alg.field
    rows = {v: [] for v in alg.vertices}  # the radical's action, by source vertex
    for r in alg.radical_basis():
        for (_tv, sv), mat in rep.act_element(r).items():
            rows[sv].extend(mat.rows)
    spans = {
        v: Matrix(f, rs, rep.dims[v]).kernel() if rs else Matrix.identity(f, rep.dims[v])
        for v, rs in rows.items()
    }
    return R.sub_rep(rep, spans)


def socle(rep):
    return socle_sub(rep)[0]


def reference_head_constituents(rep):
    h, _ = head(rep)
    return {v: d for v, d in h.dims.items() if d}


def reference_socle_constituents(rep):
    s, _ = socle_sub(rep)
    return {v: d for v, d in s.dims.items() if d}


def reference_projective_cover(rep):
    """Minimal projective cover.

    Returns (P, cover map, labels) where labels lists the vertex of each
    projective summand of P."""
    alg = rep.algebra
    f = alg.field
    h, proj = head(rep)
    labels = []
    lifts = []
    for v in alg.vertices:
        dq = h.dims[v]
        if dq == 0:
            continue
        sol = proj.mats[v].solve(Matrix.identity(f, dq))
        if sol is None:
            raise RepError("head projection not surjective")
        for j in range(dq):
            labels.append(v)
            lifts.append((v, sol.column(j)))
    if not labels:
        P = R.zero_rep(alg)
        return P, R.RepMap(P, rep, {}), []
    parts = [R.projective(alg, v) for v, _ in lifts]
    P = R.direct_sum(parts)
    col_entries = {u: [] for u in alg.vertices}
    bases = {v: R._free_basis(alg, {v: 1})[0] for v in alg.vertices if h.dims[v]}
    for v, lift in lifts:
        by_vertex = bases[v]
        for u in alg.vertices:
            for k, _ in by_vertex.get(u, []):
                col_entries[u].append(rep.action(k).apply(lift))
    mats = {u: Matrix.from_columns(f, col_entries[u], nrows=rep.dims[u]) for u in alg.vertices}
    return P, R.RepMap(P, rep, mats), labels


def reference_semisimple_min_poly(E, rad_rows, x):
    """Minimal polynomial of the image of x in E/rad, as a coefficient
    list with leading coefficient one."""
    f = E.field
    one = algebra_one(E)
    vecs = [one.dense()]
    cur = one
    while True:
        cur = cur * x
        v = cur.dense()
        A = Matrix.from_columns(f, vecs + rad_rows, nrows=E.dim)
        sol = A.solve(Matrix.from_columns(f, [v], nrows=E.dim))
        if sol is not None:
            k = len(vecs)
            col = sol.column(0)
            return [f.one] + [f.neg(col[k - 1 - i]) for i in range(k)]
        vecs.append(v)
        if len(vecs) > E.dim + 1:
            raise RepError("minimal polynomial computation runaway")


def reference_find_idempotent_map(rep, E, emaps, rad):
    """An idempotent endomorphism of rep other than 0 and 1, given
    E = End(rep)^op with basis emaps and dim E/rad >= 2 (rep's
    _find_idempotent_map as it was, reading eigenvalues in E/rad).  rad
    may be empty: rad E is nilpotent, so a minimal polynomial read in E has
    the roots of the one read in E/rad, and the candidates are the same.

    Candidates are the basis elements b_i, then the products n_i n_j of
    their nilpotent parts n_i = b_i - lambda_i, where lambda_i is the only
    eigenvalue of b_i in E/rad.  A candidate x with eigenvalues lambda and
    mu_1, ... in E/rad gives prod (x - mu)/(lambda - mu), whose eigenvalues
    are 0 and 1, both taken; Newton's iteration makes it idempotent.  Some
    candidate has two eigenvalues.  A product that is not nilpotent is
    singular in every block of E/rad, so it has the eigenvalues 0 and some
    mu != 0.  And if every n_i n_j were nilpotent, the trace form of E/rad
    would vanish on span(1, n_i) = E/rad everywhere except at (1, 1), which
    cannot happen when dim E/rad >= 2: the form is nondegenerate in
    characteristic 0 or p > dim E, which radical_basis requires of the
    one-vertex E (dim e_v E = dim E).
    """
    f = E.field
    rad_rows = [r.dense() for r in rad]
    nilpotent = []
    basis = (basis_element(E, k) for k in range(E.dim))
    # drawn only after the basis has filled nilpotent
    products = (a * b for a in nilpotent for b in nilpotent)
    for x in chain(basis, products):
        found = roots(reference_semisimple_min_poly(E, rad_rows, x), f)
        if len(found) > 1:
            break
        if len(nilpotent) < E.dim:
            nilpotent.append(x - algebra_one(E).scale(found[0]))
    else:
        raise RepError("no candidate has two eigenvalues in End/rad")
    lam, others = found[0], found[1:]
    phi = sum((emaps[k].scale(c) for k, c in x.coeffs.items()), zero_map(rep, rep))
    ident = identity_map(rep)
    num, denom = ident, f.one
    for mu in others:
        num = num.compose(phi - ident.scale(f.of(mu)))
        denom = f.mul(denom, f.sub(f.of(lam), f.of(mu)))
    return R._newton_idempotent(num.scale(f.inv(denom)), rep)


def reference_split_completely(rep):
    """The indecomposable summands of rep as (summand, inclusion,
    projection) triples; each projection solves incl . proj = e per vertex
    for the idempotent e onto its summand, so the projections sum to the
    identity against the inclusions."""
    E, hom_bases = R.endomorphism_algebra([rep], ["0"])
    rad = E.radical_basis()
    if E.dim - len(rad) == 1:
        return [(rep, identity_map(rep), identity_map(rep))]
    e = reference_find_idempotent_map(rep, E, hom_bases[(0, 0)], rad)
    out = []
    for idem in (e, identity_map(rep) - e):
        part, incl = R.image_sub(idem)
        proj = R.RepMap(rep, part, {v: incl.mats[v].solve(m) for v, m in idem.mats.items()})
        out += [(s, incl.compose(i), p.compose(proj)) for s, i, p in reference_split_completely(part)]
    return out


def reference_walk(m, n):
    """The first map of the Hom basis that is an isomorphism m -> n, or
    None; complete when End(n) is local (rep._walk as it was, before
    rep.isomorphism took it in)."""
    if m.dim_vector() != n.dim_vector():
        return None
    if m.total_dim() == 0:
        return R.RepMap(m, n, {})
    return next((phi for phi in hom_space(m, n) if phi.is_isomorphism()), None)


def reference_decompose(rep):
    """rep.decompose as it was when it grouped its leaves: the
    indecomposable summands with multiplicities, each leaf of
    reference_split_leaves counted on the first earlier leaf the Hom-basis
    walk finds isomorphic to it."""
    if rep.is_zero():
        return []
    out = []
    for p in reference_split_leaves(rep):
        for i, (q, mult) in enumerate(out):
            if reference_walk(p, q) is not None:
                out[i] = (q, mult + 1)
                break
        else:
            out.append((p, 1))
    return out


def reference_split_leaves(rep):
    """The indecomposable summands of rep: the images of an idempotent
    endomorphism e and of 1 - e, split in turn (rep._split_completely as it
    was).  Over F_p with p <= dim End(rep), where radical_basis refuses,
    the eigenvalues are read in End(rep)^op itself."""
    if R.is_indecomposable(rep):
        return [rep]
    E, hom_bases = R.endomorphism_algebra([rep], ["0"])
    p = E.field.characteristic
    rad = [] if p and p <= E.dim else E.radical_basis()
    e = reference_find_idempotent_map(rep, E, hom_bases[(0, 0)], rad)
    return [s for idem in (e, identity_map(rep) - e) for s in reference_split_leaves(R.image_sub(idem)[0])]


def reference_select_summand(spec, b, T):
    """tilting._select_summand as it was, on reference_decompose: the
    summand whose image in the top stratum of b is nonzero."""
    fiber = set(spec.fiber(spec.stratum_of[b]))
    parts = reference_decompose(T)
    hits = [
        p for p, mult in parts for _ in range(mult) if any(p.dims[v] for v in fiber)
    ]
    if len(hits) != 1:
        raise TL.TiltingError(
            f"expected exactly one summand meeting the top stratum, got {len(hits)}"
        )
    return hits[0]


def krull_schmidt_isomorphism(m, n):
    """An isomorphism m -> n, or None, as rep.isomorphism found one before
    it became the Hom-basis walk alone: where the walk fails between equal
    dimension vectors, m and n are isomorphic iff their summands pair off
    under the walk, and then sum_i incl'_sigma(i) phi_i proj_i is one."""
    phi = reference_walk(m, n)
    if phi is not None or m.dim_vector() != n.dim_vector():
        return phi
    ms = reference_split_completely(m)
    if len(ms) == 1:
        return None
    ns = reference_split_completely(n)
    if len(ns) != len(ms):
        return None
    total = zero_map(m, n)
    for s, _, proj in ms:
        for j, (t, incl, _) in enumerate(ns):
            phi = reference_walk(s, t)
            if phi is not None:
                total = total + incl.compose(phi).compose(proj)
                del ns[j]
                break
        else:
            return None
    return total


def reference_is_indecomposable(rep):
    if rep.is_zero():
        return False
    E, _ = R.endomorphism_algebra([rep], ["0"])
    return E.dim - len(E.radical_basis()) == 1


def reference_tilt(quot, spec, b):
    """The tilting module at b over the lower quotient at its stratum, by
    the whole climb from the one-stratum corner, with no memo of the
    modules met on the way."""
    lam = spec.stratum_of[b]
    chain = [frozenset(quot.vertices)]  # vertex sets, largest first
    peeled = []  # peeled[i]: the stratum chain[i] has and chain[i + 1] lacks
    while len(strata := {spec.stratum_of[v] for v in chain[-1]}) > 1:
        mu = min(m for m in spec.poset.minimal(strata) if m != lam)
        peeled.append(mu)
        chain.append(frozenset(v for v in chain[-1] if spec.stratum_of[v] != mu))
    up, up_spec = TL._corner(quot, spec, chain[-1])
    fam = S.standard_family(up, up_spec)
    T = fam.standard(b) if spec.signs[lam] == "+" else fam.costandard(b)
    for verts, mu in zip(chain[-2::-1], peeled[::-1]):
        sub, sub_spec = TL._corner(quot, spec, verts)
        induce = S.induce_from_corner if spec.signs[mu] == "+" else S.coinduce_from_corner
        T = induce(sub, up, T)
        T = TL._extension_loop(sub, sub_spec, mu, T)
        T = TL._select_summand(sub_spec, b, T)
        up = sub
    return T


def unchecked_ringel_dual(algebra, spec):
    """The Ringel dual of the climbed tilting modules, without the
    certificates that ringel_dual demands: on A at signs where the
    tilting flags fail it refuses, and this still builds the End algebra
    and the reversed, negated spec.  The tilting set holds no certificates."""
    names = sorted(algebra.vertices)
    parts = [TL._tilting(algebra, spec, b) for b in names]
    dual, hom_bases = R.endomorphism_algebra(parts, names=names)
    rho = {n: spec.stratum_of[n] for n in names}
    dual_spec = StratSpec(spec.poset.reversed(), rho, spec.negated().signs)
    tset = TL.TiltingSet(algebra, spec, dict(zip(names, parts)), {}, {})
    return TL.RingelDual(algebra, spec, tset, names, parts, dual, dual_spec, hom_bases)


# The cellular layer's end maps and dual-algebra elements as they were
# searched for before extract_cellular read them off the flag
# certificates and the Ringel dual's Hom bases, moved from qstrat.based.


def _top_costandard_projection(T, cert, fam):
    """The projection of a tilting module onto the top section of its
    certified costandard flag, composed with an isomorphism onto the
    family's signed costandard module itself."""
    target = fam.signed_costandard(cert.sections[-1])
    if len(cert.sections) == 1:
        iso = R.isomorphism(T, target)
        if iso is None:
            raise BasedError("tilting is not its own costandard?")
        return iso
    spans = cert.witnesses[-2]
    quot, proj = R.quotient_rep(T, spans)
    iso = R.isomorphism(quot, target)
    if iso is None:
        raise BasedError("top costandard section does not match")
    return iso.compose(proj)


def _bottom_standard_inclusion(T, cert, fam):
    """The inclusion of the family's signed standard bottom section of a
    certified standard flag."""
    source = fam.signed_standard(cert.sections[0])
    spans = cert.witnesses[0]
    sub, incl = R.sub_rep(T, spans)
    iso = R.isomorphism(source, sub)
    if iso is None:
        raise BasedError("bottom standard section does not match")
    return incl.compose(iso)


def _map_to_element(rd, i_name, j_name, phi):
    """Express a map T_i -> T_j as an element of the dual algebra, whose
    grade (i, j) lists the basis of Hom(T_i, T_j) in order."""
    i, j = rd.names.index(i_name), rd.names.index(j_name)
    coords = R.hom_coords([phi], rd.hom_bases[(i, j)])[0]
    f = rd.dual_algebra.field
    ks = rd.dual_algebra.by_grade.get((i_name, j_name), ())
    return rd.dual_algebra.element({k: c for k, c in zip(ks, coords) if not f.is_zero(c)})


def reference_closure(self):
    """The set of pairs (a, b) with a <= b in a Poset, as the fixpoint over
    the covers that Poset computed before its one topological pass: one
    sweep per chain link."""
    below = {e: {e} for e in self.elements}
    changed = True
    while changed:
        changed = False
        for a, b in self.covers:
            add = below[a] - below[b]
            if add:
                below[b] |= add
                changed = True
    le = {(a, b) for b in self.elements for a in below[b]}
    for a in self.elements:
        for b in self.elements:
            if a != b and (a, b) in le and (b, a) in le:
                raise StratError(f"covers are cyclic at {a}, {b}")
    return le


def ext1_dim(m, n):
    return ext1_with_cocycles(m, n, syzygy(m))[0]


# The hand-written family builders that the FAMILIES templates of
# qstrat.examples replaced.


def _pres(field, vertices, arrows, relations, bound):
    return QuiverPresentation(
        field=field,
        vertices=[str(v) for v in vertices],
        arrows=arrows,
        relations=relations,
        degree_bound=bound,
    )


def _ladder_arrows(lo, hi, up_name, down_name):
    ups = [Arrow(f"{up_name}{i}", str(i), str(i + 1)) for i in range(lo, hi)]
    downs = [Arrow(f"{down_name}{i}", str(i + 1), str(i)) for i in range(lo, hi)]
    return ups + downs


def reference_monomial_ladder(field, lo, hi, bound=5):
    """Arrows y_i: i -> i+1 and x_i: i+1 -> i on [lo, hi], with
    y_{i+1} y_i = x_i x_{i+1} = x_i y_i = 0 wherever defined."""
    arrows = _ladder_arrows(lo, hi, "y", "x")
    rels = []
    one = field.one
    for i in range(lo, hi - 1):
        rels.append([(one, (f"y{i+1}", f"y{i}"))])
        rels.append([(one, (f"x{i}", f"x{i+1}"))])
    for i in range(lo, hi):
        rels.append([(one, (f"x{i}", f"y{i}"))])
    return _pres(field, range(lo, hi + 1), arrows, rels, bound)


def reference_commuting_ladder(field, lo, hi, bound=6):
    """Arrows x_i: i -> i+1 and y_i: i+1 -> i on [lo, hi], with
    x_{i+1} x_i = y_i y_{i+1} = 0 and x_i y_i = y_{i+1} x_{i+1}."""
    arrows = _ladder_arrows(lo, hi, "x", "y")
    rels = []
    one = field.one
    for i in range(lo, hi - 1):
        rels.append([(one, (f"x{i+1}", f"x{i}"))])
        rels.append([(one, (f"y{i}", f"y{i+1}"))])
        rels.append([(one, (f"x{i}", f"y{i}")), (field.neg(one), (f"y{i+1}", f"x{i+1}"))])
    return _pres(field, range(lo, hi + 1), arrows, rels, bound)


def _chain_poset(values, reverse=False):
    vals = [str(v) for v in values]
    covers = [(vals[i], vals[i + 1]) for i in range(len(vals) - 1)]
    if reverse:
        covers = [(b, a) for a, b in covers]
    return Poset(vals, covers)


def reference_semi_infinite(window, field=QQ, signs=None):
    """Corner truncation, to vertices 0..window, of the half-line quiver
    with monomial relations; the weight poset is reversed (0 is largest).

    The corner of the full algebra agrees with the algebra of the naive
    window sub-quiver because the relations are monomial, so the window
    algebra is built directly.  Dimension 4*window + 1.
    """
    alg = build_algebra(reference_monomial_ladder(field, 0, window))
    poset = _chain_poset(range(window + 1), reverse=True)
    labels = [str(i) for i in range(window + 1)]
    spec = StratSpec(poset, {v: v for v in labels}, signs or {v: "+" for v in labels})
    return alg, spec


def reference_quantum_sl2(window, field=QQ, signs=None):
    """Lower-set quotient, to vertices 0..window, of the commutation-quiver
    algebra on the half line; natural order 0 < 1 < ... .

    Built one step wide and cut down, because killing the idempotent above
    the window also kills the loop that the commutation relation drags
    below it.
    """
    big = build_algebra(reference_commuting_ladder(field, 0, window + 1))
    alg, _ = big.truncate_lower({str(window + 1)})
    poset = _chain_poset(range(window + 1))
    labels = [str(i) for i in range(window + 1)]
    spec = StratSpec(poset, {v: v for v in labels}, signs or {v: "+" for v in labels})
    return alg, spec


def reference_gl11(lo, hi, field=QQ, signs=None):
    """Interval window [lo, hi] of the commutation quiver on all integers;
    natural order.  Realized as a lower-set quotient at the top of the
    window followed by a corner at the bottom."""
    big = build_algebra(reference_commuting_ladder(field, lo - 1, hi + 1))
    cut, _ = big.truncate_lower({str(hi + 1)})
    alg = cut.truncate_upper({str(i) for i in range(lo, hi + 1)})
    poset = _chain_poset(range(lo, hi + 1))
    labels = [str(i) for i in range(lo, hi + 1)]
    spec = StratSpec(poset, {v: v for v in labels}, signs or {v: "+" for v in labels})
    return alg, spec


def reference_two_sided_monomial(lo, hi, field=QQ, signs=None):
    """Interval window [lo, hi] of the two-sided zigzag with monomial
    relations; the poset is all integers with the order reversed, so the
    window is a corner at the top and a quotient at the bottom."""
    big = build_algebra(reference_monomial_ladder(field, lo - 1, hi + 1))
    cut, _ = big.truncate_lower({str(lo - 1)})
    alg = cut.truncate_upper({str(i) for i in range(lo, hi + 1)})
    poset = _chain_poset(range(lo, hi + 1), reverse=True)
    labels = [str(i) for i in range(lo, hi + 1)]
    spec = StratSpec(poset, {v: v for v in labels}, signs or {v: "+" for v in labels})
    return alg, spec


# The one-vertex algebra that only the tests build, moved from
# qstrat.examples.


def dual_numbers(field=QQ):
    """k[s]/(s^2) on one vertex."""
    arrows = [Arrow("s", "1", "1")]
    rels = [[(field.one, ("s", "s"))]]
    alg = build_algebra(_pres(field, ["1"], arrows, rels, 3))
    poset = Poset(["1"], [])
    return alg, StratSpec(poset, {"1": "1"}, {"1": "+"})


# The socle-side flag peel that costandard certificates came from before
# they were read off the standard peel of the dual module, moved from
# qstrat.strat with the certificate it built.


class FlagCertificate:
    """The flag certificate of the socle-side peel: its last map, an
    isomorphism between the end section and the family's module, and the
    composite of the chain before it, from which end() reads the
    section's map."""

    def __init__(self, flavor, sections, witnesses, last, chain):
        self.flavor = flavor
        self.sections = sections
        self.witnesses = witnesses
        self._last = last
        self._chain = chain

    def end(self):
        last = self._last
        f = last.source.algebra.field
        inverse = R.RepMap(last.target, last.source, {
            v: m.solve(Matrix.identity(f, m.nrows)) for v, m in last.mats.items() if m.nrows
        })
        if self._chain is None:
            return inverse
        return self._chain.compose(inverse) if self.flavor == "standard" else inverse.compose(self._chain)


def _peel_costandard(module, family):
    spec = family.spec
    cur = module
    sections = []
    proj_chain = []
    while not cur.is_zero():
        cands = _sorted_candidates(spec, list(R.socle_constituents(cur)))
        phi = None
        label = None
        for b in cands:
            source = family.signed_costandard(b)
            phi = _find_mono(source, cur)
            if phi is not None:
                label = b
                break
        if phi is None:
            return FlagFailure("costandard", cur, sections)
        Q, proj = R.quotient_rep(cur, phi.image_spans())
        sections.append(label)
        proj_chain.append(proj)
        cur = Q
    witnesses, chain = _witnesses_from_quotient_chain(module, proj_chain)
    return FlagCertificate("costandard", sections, witnesses, phi, chain)


def _find_mono(source, module):
    """An injection source -> module from the Hom basis, or None (dually:
    the socle of a signed costandard is simple)."""
    return next((phi for phi in R.hom_space(source, module) if phi.rank() == source.total_dim()), None)


def _witnesses_from_quotient_chain(module, proj_chain):
    """Filtration spans from successive socle-side quotients: V_m is the
    kernel of the composite of the first m projections (after all n steps
    the composite lands in the zero module, so the last kernel is all of
    the module), and the projection onto the top section, the composite of
    the first n - 1 projections (None when n = 1)."""
    witnesses = []
    comp = chain = None
    for proj in proj_chain:
        chain = comp
        comp = proj if comp is None else proj.compose(comp)
        witnesses.append({v: comp.mats[v].kernel() for v in module.algebra.vertices})
    return witnesses, chain


# The rigidity verdict that climbed the all-plus and all-minus tilting
# modules, certified one pair of flags on each and walked an isomorphism
# between them, before rigidity was read off the certificates of the
# job's own tilting modules; moved from qstrat.tilting unchanged.


def reference_tilting_rigidity(algebra, spec, raise_failed=False):
    """Whether the plus- and minus-tilting families agree at every label.

    A label is rigid when the plus and minus tilting modules there carry
    all four certified flags (standard and costandard, at all-plus and at
    all-minus signs) and are isomorphic.  With raise_failed, a failed
    certificate raises FlagFailed instead: the first one by label, plus
    before minus, standard before costandard.
    """
    fams = [S.standard_family(algebra, spec.with_signs(dict.fromkeys(spec.poset.elements, s))) for s in "+-"]
    detail = {}
    for b in sorted(algebra.vertices):
        tilts = [TL._tilting(algebra, fam.spec, b) for fam in fams]
        certs = (
            (fam, S.certify_flag(T, fam, flavor))
            for fam, T in zip(fams, tilts)
            for flavor in ("standard", "costandard")
        )
        failed = next(((fam, c) for fam, c in certs if not c), None)
        if failed and raise_failed:
            raise TL.FlagFailed(b, failed[1], failed[0].spec.signs)
        detail[b] = failed is None and R.isomorphism(*tilts) is not None
    return all(detail.values()), detail


def job_tilting_rigidity(algebra, spec):
    """tilting.tilting_rigidity fed the job-sign certificates the way the
    tilting command feeds it: each label's tilting_module pair, or the
    FlagFailed it raised."""
    certified = {}
    for b in sorted(algebra.vertices):
        try:
            certified[b] = TL.tilting_module(algebra, spec, b)[1:]
        except TL.FlagFailed as e:
            certified[b] = e
    return TL.tilting_rigidity(algebra, spec, certified)


# Checks and constructions the commands do not run, moved here unchanged
# from the package as the references tests compare against.  The ones
# that were methods take their object as self.


def check_valid(self):
    """Re-check that the matrices define a module over the structure
    constants, including zero products."""
    alg = self.algebra
    for k in range(alg.dim):
        for l in range(alg.dim):
            if alg.src(k) != alg.tgt(l):
                continue
            if self.dims[alg.tgt(k)] == 0 or self.dims[alg.src(l)] == 0:
                continue
            lhs = self.action(k) * self.action(l)
            rhs = Matrix.zero(alg.field, lhs.nrows, lhs.ncols)
            for m, c in alg.mult.get((k, l), ()):
                rhs = rhs + self.action(m).scale(c)
            if lhs != rhs:
                raise RepError(f"action violates structure constants at ({k},{l})")
    return True


def check_map(self):
    """Intertwiner equations against every basis element."""
    alg = self.source.algebra
    for k in range(alg.dim):
        b = alg.basis[k]
        if self.mats[b.tgt] * self.source.action(k) != self.target.action(k) * self.mats[b.src]:
            raise RepError(f"not a homomorphism at basis element {k}")
    return True


def basis_element(self, k):
    return self.element({k: self.field.one})


def algebra_one(self):
    """The unit of the algebra: the sum of its vertex idempotents."""
    return self.element({k: self.field.one for k in self.idempotent_index.values()})


def zero_map(source, target):
    return R.RepMap(source, target, {})


def element_by_name(self, name):
    for k, b in enumerate(self.basis):
        if b.name == name:
            return basis_element(self, k)
    raise AlgebraError(f"no basis element named {name!r}")


def lower_set(self, gens):
    gens = {str(g) for g in gens}
    return {a for a in self.elements if any(self.leq(a, g) for g in gens)}


def upper_set(self, gens):
    gens = {str(g) for g in gens}
    return {a for a in self.elements if any(self.leq(g, a) for g in gens)}


def standardize(algebra, spec, lam, stratum_module):
    """Left adjoint of the stratum quotient functor applied to a module
    over stratum_algebra(lam): (A_{<=lam} e-bar) tensored over the stratum
    algebra, inflated back to the full algebra."""
    quot, tmap = lower_quotient(algebra, spec, lam)
    small = induce_from_corner(quot, stratum_algebra(algebra, spec, lam), stratum_module)
    return inflate(small, algebra, tmap)


def costandardize(algebra, spec, lam, stratum_module):
    """Right adjoint of the stratum quotient functor applied to a module
    over stratum_algebra(lam), inflated back to the full algebra."""
    quot, tmap = lower_quotient(algebra, spec, lam)
    small = coinduce_from_corner(quot, stratum_algebra(algebra, spec, lam), stratum_module)
    return inflate(small, algebra, tmap)


def verify_certificate(module, family, cert):
    """Re-verify a flag certificate: each successive quotient of the
    witnessed filtration is isomorphic to the named section."""
    prev_incl = None
    for m, b in enumerate(cert.sections):
        spans = cert.witnesses[m]
        sub, incl = R.sub_rep(module, spans)
        if prev_incl is not None:
            # section = V_m / V_{m-1}
            inner = {}
            for v in module.algebra.vertices:
                sol = incl.mats[v].solve(prev_incl.mats[v])
                if sol is None:
                    return False
                inner[v] = sol
            section, _ = R.quotient_rep(sub, inner)
        else:
            section = sub
        target = (
            family.signed_standard(b)
            if cert.flavor == "standard"
            else family.signed_costandard(b)
        )
        if R.isomorphism(section, target) is None:
            return False
        prev_incl = incl
    last = cert.witnesses[-1]
    full = all(
        last[v].ncols == module.dims[v] and last[v].rank() == module.dims[v]
        for v in module.algebra.vertices
    )
    return full


def certificate_from_json(field, data):
    """The FlagCertificate a report embeds (FlagCertificate.to_json), read
    back: each witness level's span matrices from their rows of entry
    strings.  The end map is not embedded, so it is left out."""

    def matrix(rows):
        return Matrix(field, [[field.of(x) for x in row] for row in rows], len(rows[0]) if rows else 0)

    levels = [{v: matrix(rows) for v, rows in level.items()} for level in data["witnesses"]]
    return S.FlagCertificate(data["flavor"], list(data["sections"]), levels, None)


def replay_flag_certificates(algebra, spec, report):
    """Re-verify, from the report's JSON alone, each projective_flag[b] and
    injective_flag[b] certificate a `verify --witnesses` report embeds: the
    certificate rebuilt by certificate_from_json is checked by
    verify_certificate against P(b) or I(b) and the family at the report's
    signs.  Returns {check name: verdict}; spans that are not a filtration
    by submodules give False."""
    fam = S.standard_family(algebra, spec.with_signs(report["data"]["signs"]))
    out = {}
    for check in report["checks"]:
        kind, _, label = check["name"].partition("_flag[")
        if kind not in ("projective", "injective") or "certificate" not in check["details"]:
            continue
        b = label[:-1]
        module = R.projective(algebra, b) if kind == "projective" else R.injective(algebra, b)
        cert = certificate_from_json(algebra.field, check["details"]["certificate"])
        try:
            out[check["name"]] = verify_certificate(module, fam, cert)
        except RepError:
            out[check["name"]] = False
    return out


def ringel_double_dual_roundtrip(algebra, spec):
    """Ringel dual twice: dimension and simple count recover the source,
    with the projective <-> tilting dictionary verified."""
    rep = Report(command="ringel_double_dual")
    rd = ringel_dual(algebra, spec)
    rd2 = ringel_dual(rd.dual_algebra, rd.dual_spec)
    rep.add("dim_recovered", rd2.dual_algebra.dim == algebra.dim,
            got=rd2.dual_algebra.dim, want=algebra.dim)
    rep.add(
        "simple_count_recovered",
        len(rd2.dual_algebra.vertices) == len(algebra.vertices),
    )
    # dictionary: F maps the dual tiltings back to projectives of the source
    for b in sorted(algebra.vertices):
        FT = ringel_image(rd2, rd2.tilt.module(b))
        rep.add(
            f"projective_dictionary[{b}]",
            R.isomorphism(FT, R.projective(rd2.dual_algebra, b)) is not None,
        )
    return rep


def check_ideal_bases(algebra, data):
    """For every principal upper set, the products indexed by it span
    exactly the two-sided ideal generated by its special idempotents."""
    rep = Report(command="check_ideal_bases")
    spec = data.spec
    f = algebra.field
    special = data.special()
    for lam0 in sorted({spec.stratum_of[b] for b in special}):
        upper = upper_set(spec.poset, [lam0])
        labels = [b for b in special if spec.stratum_of[b] in upper]
        span = span_rref(f, [p.dense() for p in data.products(labels)], algebra.dim)
        prank = len(span.rows)
        ideal = algebra._ideal_span(set(labels))
        irank = len(ideal.rows)
        same_span = span.rows == ideal.rows  # canonical bases
        rep.add(f"ideal_basis[{lam0}]", same_span, products_rank=prank, ideal_rank=irank)
    return rep
