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
from math import gcd

from qstrat.exactla import QQ, Matrix, independent, span_rref
from qstrat.rep import Resolution, RepError, hom_coords, hom_space, identity_map, lift, syzygy


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
    got = lift(incl.target, incl.source, lambda r: r.compose(incl), [identity_map(incl.source)])
    return None if got is None else got[0]


def reference_ideal_span(self, kill):
    """Row-space rref of the two-sided ideal generated by the given
    vertex idempotents, in basis coordinates."""
    f = self.field
    vecs = []
    for c in kill:
        ec = self.idempotent_index[c]
        left = [k for k in range(self.dim) if self.src(k) == c]   # basis of A e_c
        right = [l for l in range(self.dim) if self.tgt(l) == c]  # basis of e_c A
        vecs.append(self.basis_element(ec).dense())
        for k in left:
            for l in right:
                prod = self.multiply(self.basis_element(k), self.basis_element(l))
                if not prod.is_zero():
                    vecs.append(prod.dense())
        for k in left:
            vecs.append(self.basis_element(k).dense())
        for l in right:
            vecs.append(self.basis_element(l).dense())
    return span_rref(f, vecs, self.dim)
