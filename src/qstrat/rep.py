"""Finite-dimensional modules over an Algebra and their homological algebra.

A Rep stores one vector space per vertex and the matrix of every algebra
basis element, so a module structure is exactly an algebra homomorphism
into matrices and is available for algebras without a quiver presentation
(corners, quotients, endomorphism algebras, opposites).  A Hom space out
of a resolution term is read off by Yoneda, Hom(A e_v, N) = e_v N; the
others come from the intertwiner equations over a generating set.
Everything else -- radicals, socles, Ext groups, minimal resolutions,
indecomposable decompositions -- is exact linear algebra on top of that.
"""

from __future__ import annotations

from itertools import accumulate, chain
from operator import mul

from .exactla import Matrix, NotSplit, independent, roots, span_pivots, span_rref


class RepError(ValueError):
    pass


class ZeroClass(RepError):
    """extension_middle was handed the zero cohomology class."""


class Rep:
    """A left module: dims per vertex plus the action of each basis element.

    act[k] is the matrix of the k-th basis element, of shape
    (dims[tgt(k)], dims[src(k)]); absent keys act as zero.  Idempotents act
    as the identity on their vertex space and are not stored.  A Rep is
    never changed once built, so its content key is kept on it once formed.
    """

    __slots__ = ("algebra", "dims", "act", "_key")

    def __init__(self, algebra, dims, act):
        self.algebra = algebra
        self.dims = {v: int(dims.get(v, 0)) for v in algebra.vertices}
        idem = set(algebra.idempotent_index.values())
        self.act = {k: m for k, m in act.items() if k not in idem and not m.is_zero()}
        self._key = None

    def action(self, k):
        alg = self.algebra
        b = alg.basis[k]
        if alg.idempotent_index.get(b.src) == k:
            return Matrix.identity(alg.field, self.dims[b.src])
        got = self.act.get(k)
        if got is not None:
            return got
        return Matrix.zero(alg.field, self.dims[b.tgt], self.dims[b.src])

    def act_element(self, x):
        """Action of an AlgElement, one matrix per (tgt, src) grading met."""
        out = {}
        for k, c in x.coeffs.items():
            b = self.algebra.basis[k]
            if k in self.act or self.algebra.idempotent_index.get(b.src) == k:
                m = self.action(k).scale(c)
                key = (b.tgt, b.src)
                out[key] = out[key] + m if key in out else m
        return out

    def total_dim(self):
        return sum(self.dims.values())

    def dim_vector(self):
        return dict(self.dims)

    def is_zero(self):
        return self.total_dim() == 0

    def __repr__(self):
        nz = {v: d for v, d in self.dims.items() if d}
        return f"Rep({nz}, total={self.total_dim()})"


def zero_rep(algebra):
    return Rep(algebra, {}, {})


def simple_rep(algebra, vertex):
    """The one-dimensional module at a vertex (head of a pointed algebra's
    vertex projective)."""
    return Rep(algebra, {vertex: 1}, {})


def _free_basis(algebra, copies):
    """The basis of the free module sum_v (A e_v)^copies[v] by vertex, as
    free_module(algebra, copies) orders it: u -> the pairs (k, j) with k a
    basis element from v to u and j < copies[v], ordered by k and then j,
    and each pair -> its row in the space at u.  Memoized per algebra and
    copies; callers only read it."""
    key = frozenset((v, n) for v, n in copies.items() if n)
    if key not in algebra._free_bases:
        by_vertex = {}
        for k in range(algebra.dim):
            for j in range(copies.get(algebra.src(k), 0)):
                by_vertex.setdefault(algebra.tgt(k), []).append((k, j))
        pos = {p: i for ps in by_vertex.values() for i, p in enumerate(ps)}
        algebra._free_bases[key] = by_vertex, pos
    return algebra._free_bases[key]


def free_module(algebra, copies):
    """The free module sum_v (A e_v)^copies[v] as a Rep: the one
    construction of A e_v, the regular module and the free part of a
    corner tensor product."""
    alg = algebra
    f = alg.field
    by_vertex, pos = _free_basis(alg, copies)
    act = {}
    for g in range(alg.dim):
        bg = alg.basis[g]
        src_list = by_vertex.get(bg.src, [])
        tgt_list = by_vertex.get(bg.tgt, [])
        if not src_list or not tgt_list:
            continue
        rows = [[f.zero] * len(src_list) for _ in tgt_list]
        nonzero = False
        for i, (k, j) in enumerate(src_list):
            for m, c in alg.mult.get((g, k), ()):
                rows[pos[(m, j)]][i] = c
                nonzero = True
        if nonzero:
            act[g] = Matrix(f, rows, len(src_list))
    return Rep(alg, {v: len(ps) for v, ps in by_vertex.items()}, act)


def projective(algebra, vertex):
    """The left ideal A e_v as a Rep."""
    return free_module(algebra, {vertex: 1})


def projective_span(algebra, vertex, elements):
    """The per-vertex spans, inside projective(algebra, vertex), of the
    components e_u x of elements x of A e_v.  Raises RepError on a term
    outside A e_v."""
    f = algebra.field
    by_vertex, pos = _free_basis(algebra, {vertex: 1})
    cols = {u: [] for u in by_vertex}
    for x in elements:
        parts = {}
        for k, c in x.coeffs.items():
            if algebra.src(k) != vertex:
                raise RepError(f"element outside A e_{vertex}")
            u = algebra.tgt(k)
            parts.setdefault(u, [f.zero] * len(by_vertex[u]))[pos[(k, 0)]] = c
        for u, col in parts.items():
            cols[u].append(col)
    return {u: Matrix.from_columns(f, cs, nrows=len(by_vertex[u])) for u, cs in cols.items()}


def dual(rep):
    """The dual module over the opposite algebra (a contravariant
    involution: dual(dual(m)) is a module over the original algebra)."""
    opp = rep.algebra.opposite()
    act = {k: m.transpose() for k, m in rep.act.items()}
    return Rep(opp, dict(rep.dims), act)


def injective(algebra, vertex):
    """Injective hull of the simple at a vertex: dual of the opposite
    vertex projective."""
    return dual(projective(algebra.opposite(), vertex))


def direct_sum(parts):
    """Direct sum, each action matrix written block-diagonally from padded
    rows."""
    if not parts:
        raise RepError("direct_sum of no parts")
    alg = parts[0].algebra
    f = alg.field
    starts = [{v: sum(q.dims[v] for q in parts[:i]) for v in alg.vertices} for i in range(len(parts) + 1)]
    dims = starts.pop()
    z = [f.zero]
    act = {}
    for k in set().union(*(p.act for p in parts)):
        s = alg.src(k)
        pad = [z * at[s] + r + z * (dims[s] - at[s] - p.dims[s]) for at, p in zip(starts, parts) for r in p.action(k).rows]
        act[k] = Matrix._of(f, pad, dims[s])
    return Rep(alg, dims, act)


class RepMap:
    """A homomorphism of Reps: one matrix per vertex."""

    __slots__ = ("source", "target", "mats")

    def __init__(self, source, target, mats):
        self.source = source
        self.target = target
        f = source.algebra.field
        self.mats = {}
        for v in source.algebra.vertices:
            m = mats.get(v)
            if m is None:
                m = Matrix.zero(f, target.dims[v], source.dims[v])
            self.mats[v] = m

    def compose(self, other):
        """self after other."""
        return RepMap(other.source, self.target, {v: self.mats[v] * other.mats[v] for v in self.mats})

    def __add__(self, other):
        return RepMap(self.source, self.target, {v: self.mats[v] + other.mats[v] for v in self.mats})

    def __sub__(self, other):
        return RepMap(self.source, self.target, {v: self.mats[v] - other.mats[v] for v in self.mats})

    def scale(self, c):
        return RepMap(self.source, self.target, {v: m.scale(c) for v, m in self.mats.items()})

    def is_zero(self):
        return all(m.is_zero() for m in self.mats.values())

    def __eq__(self, other):
        return isinstance(other, RepMap) and self.mats == other.mats

    def rank(self):
        return sum(m.rank() for m in self.mats.values())

    def is_surjective(self):
        return self.rank() == self.target.total_dim()

    def is_isomorphism(self):
        return all(m.nrows == m.ncols and m.is_invertible() for m in self.mats.values())

    def kernel_spans(self):
        return {v: m.kernel() for v, m in self.mats.items()}

    def image_spans(self):
        return {v: m.column_space_basis() for v, m in self.mats.items()}

    def __repr__(self):
        return f"RepMap({self.source!r} -> {self.target!r})"


def identity_map(rep):
    f = rep.algebra.field
    return RepMap(rep, rep, {v: Matrix.identity(f, rep.dims[v]) for v in rep.algebra.vertices})


def hom_space(m, n):
    """Basis of Hom(m, n) as a list of RepMaps.

    Solves the intertwiner equations phi_tgt . a = a . phi_src over the
    algebra's generating set.
    """
    alg = m.algebra
    if alg is not n.algebra:
        raise RepError("modules over different algebras")
    f = alg.field
    verts = list(alg.vertices)
    offs = {}
    pos = 0
    for v in verts:
        offs[v] = pos
        pos += n.dims[v] * m.dims[v]
    nun = pos
    if nun == 0:
        return []
    gens = alg.generators
    zero = f.zero
    rows = []
    for k in gens:
        b = alg.basis[k]
        dms, dmt = m.dims[b.src], m.dims[b.tgt]
        dns, dnt = n.dims[b.src], n.dims[b.tgt]
        if dnt == 0 or dms == 0:
            continue
        if k not in m.act and k not in n.act and alg.idempotent_index.get(b.src) != k:
            continue  # a acts as zero on both: every equation is 0 = 0
        # the nonzero entries of each column of a on m and each row of a on
        # n; the equation (r, c) reads column c and row r
        m_cols = [[(s, a) for s, a in enumerate(col) if not f.is_zero(a)] for col in m.action(k).columns()]
        n_rows = [[(s, a) for s, a in enumerate(row) if not f.is_zero(a)] for row in n.action(k).rows]
        for r in range(dnt):
            tgt_off = offs[b.tgt] + r * dmt
            n_terms = [(offs[b.src] + s * dms, a) for s, a in n_rows[r]]
            for c in range(dms):
                # the equation's entries by unknown; a dense row is built
                # only for an equation with a nonzero entry
                eq = {tgt_off + s: a for s, a in m_cols[c]}
                for base, a in n_terms:
                    eq[base + c] = f.sub(eq.get(base + c, zero), a)
                if any(not f.is_zero(x) for x in eq.values()):
                    row = [zero] * nun
                    for idx, x in eq.items():
                        row[idx] = x
                    rows.append(row)
    if rows:
        ker = Matrix(f, rows, nun).kernel()
        cols = [ker.column(j) for j in range(ker.ncols)]
    else:
        cols = [[f.one if i == j else f.zero for i in range(nun)] for j in range(nun)]
    out = []
    for vec in cols:
        mats = {}
        for v in verts:
            dn, dm = n.dims[v], m.dims[v]
            block = [[vec[offs[v] + r * dm + c] for c in range(dm)] for r in range(dn)]
            mats[v] = Matrix(f, block, dm)
        out.append(RepMap(m, n, mats))
    return out


def hom_dim(m, n):
    return len(hom_space(m, n))


# -- sub/quotient structures ---------------------------------------------


def close_spans(rep, spans):
    """Close per-vertex column spans under the algebra action.

    spans maps vertices to Matrix objects whose columns span the subspace
    S.  The closure A S is spanned by S and its images under the basis
    elements, all of which rep.act holds, so one pass and one rref per
    vertex give it: A (A S) = A S adds nothing.  Returns its canonical
    (rref) basis as columns.
    """
    alg = rep.algebra
    f = alg.field
    cols = {v: spans[v].columns() if v in spans else [] for v in alg.vertices}
    vecs = {v: list(c) for v, c in cols.items()}
    for k, mat in rep.act.items():
        vecs[alg.tgt(k)].extend(mat.apply(c) for c in cols[alg.src(k)])
    return {
        v: Matrix.from_columns(f, span_rref(f, vecs[v], rep.dims[v]).rows, nrows=rep.dims[v])
        for v in alg.vertices
    }


def sub_rep(rep, spans):
    """The submodule with the given per-vertex column spans, which must be
    a submodule already (close_spans makes one from any spans).

    Returns (sub, inclusion); raises RepError when the spans are not
    invariant under the action.
    """
    alg = rep.algebra
    f = alg.field
    basis = {
        v: spans[v].column_space_basis() if v in spans else Matrix.zero(f, rep.dims[v], 0)
        for v in alg.vertices
    }
    dims = {v: basis[v].ncols for v in alg.vertices}
    act = {}
    for k, mat in rep.act.items():
        b = alg.basis[k]
        if dims[b.src] == 0:
            continue
        image = mat * basis[b.src]
        if dims[b.tgt] == 0 and image.is_zero():
            continue
        coords = basis[b.tgt].solve(image) if dims[b.tgt] else None
        if coords is None:
            raise RepError("spans are not action-invariant")
        if not coords.is_zero():
            act[k] = coords
    sub = Rep(alg, dims, act)
    return sub, RepMap(sub, rep, basis)


def _quotient_projection(rep, spans):
    """The per-vertex projections of rep onto rep modulo the spans, and the
    free coordinates, outside each span's rref pivots, that they keep."""
    f = rep.algebra.field
    proj = {}
    frees = {}
    for v in rep.algebra.vertices:
        d = rep.dims[v]
        row_basis = span_rref(f, spans[v].columns() if v in spans else [], d)
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
    return proj, frees


def quotient_rep(rep, spans):
    """The quotient by the submodule with the given per-vertex column
    spans, which must be a submodule already (close_spans makes one from
    any spans).

    Returns (quotient, projection)."""
    alg = rep.algebra
    f = alg.field
    proj, frees = _quotient_projection(rep, spans)
    dims = {v: len(frees[v]) for v in alg.vertices}
    act = {}
    for k, mat in rep.act.items():
        b = alg.basis[k]
        if dims[b.src] == 0 or dims[b.tgt] == 0:
            continue
        # the action on the free coordinates: those columns of mat
        q = proj[b.tgt] * Matrix.from_columns(f, [mat.column(j) for j in frees[b.src]], nrows=rep.dims[b.tgt])
        if not q.is_zero():
            act[k] = q
    quot = Rep(alg, dims, act)
    return quot, RepMap(rep, quot, proj)


def image_sub(phi):
    """Image of a RepMap as a submodule of its target."""
    return sub_rep(phi.target, phi.image_spans())


def kernel_sub(phi):
    return sub_rep(phi.source, phi.kernel_spans())


# -- radical / socle / simples ---------------------------------------------


def _radical_spans(rep):
    """The columns of rad(A) . rep by vertex: a submodule, since rad(A) is
    an ideal."""
    f = rep.algebra.field
    cols = {v: [] for v in rep.algebra.vertices}
    for r in rep.algebra.radical_basis():
        for (tv, _sv), mat in rep.act_element(r).items():
            cols[tv] += [c for c in mat.columns() if any(not f.is_zero(x) for x in c)]
    return {v: Matrix.from_columns(f, cs, nrows=rep.dims[v]) for v, cs in cols.items()}


def simples(algebra):
    """The simple modules of a pointed split algebra, one per vertex.

    Raises NotSplit when dim A/rad differs from the vertex count, which is
    exactly when some End(L) would exceed the ground field or some vertex
    idempotent is not primitive.
    """
    rad = algebra.radical_basis()
    if algebra.dim - len(rad) != len(algebra.vertices):
        raise NotSplit(
            "algebra is not pointed split over this field: "
            f"dim A/rad = {algebra.dim - len(rad)}, vertices = {len(algebra.vertices)}"
        )
    return {v: simple_rep(algebra, v) for v in algebra.vertices}


def head_constituents(rep):
    """[rep / rad(rep) : L(v)] = dim rep_v - rank of rad(A) . rep at v."""
    spans = _radical_spans(rep)
    return {v: d - spans[v].rank() for v, d in rep.dims.items() if d > spans[v].rank()}


def socle_constituents(rep):
    """The socle is the joint kernel of the radical's action, whose rows are
    the columns of rad(A^op) . dual(rep): the head of the dual."""
    return head_constituents(dual(rep))


# -- covers, resolutions, Ext -------------------------------------------------


def projective_cover(rep):
    """Minimal projective cover.

    Returns (P, cover map, labels) where labels lists the vertex of each
    projective summand of P."""
    alg = rep.algebra
    f = alg.field
    # the head's basis lifts through its projection; the head is not built
    proj, frees = _quotient_projection(rep, _radical_spans(rep))
    labels = []
    lifts = []
    for v in alg.vertices:
        dq = len(frees[v])
        if dq == 0:
            continue
        sol = proj[v].solve(Matrix.identity(f, dq))
        if sol is None:
            raise RepError("head projection not surjective")
        for j in range(dq):
            labels.append(v)
            lifts.append((v, sol.column(j)))
    if not labels:
        P = zero_rep(alg)
        return P, RepMap(P, rep, {}), []
    parts = [projective(alg, v) for v, _ in lifts]
    P = direct_sum(parts)
    col_entries = {u: [] for u in alg.vertices}
    bases = {v: _free_basis(alg, {v: 1})[0] for v in alg.vertices if frees[v]}
    for v, lift in lifts:
        by_vertex = bases[v]
        for u in alg.vertices:
            for k, _ in by_vertex.get(u, []):
                col_entries[u].append(rep.action(k).apply(lift))
    mats = {u: Matrix.from_columns(f, col_entries[u], nrows=rep.dims[u]) for u in alg.vertices}
    return P, RepMap(P, rep, mats), labels


def syzygy(rep):
    """(K, incl, P, cover, labels) for the kernel of a minimal cover."""
    P, cover, labels = projective_cover(rep)
    K, incl = kernel_sub(cover)
    return K, incl, P, cover, labels


def _content_key(rep):
    """A module's dimensions and action matrices as one dict key, kept on
    the module; it holds the module's own matrices, not copies."""
    if rep._key is None:
        rep._key = (tuple(rep.dims.values()), frozenset(rep.act.items()))
    return rep._key


def _presentation(rep):
    """syzygy(rep), computed once per module content over the algebra.
    The cover returned targets rep itself."""
    memo = rep.algebra._syzygies
    key = _content_key(rep)
    if key not in memo:
        memo[key] = syzygy(rep)
    K, incl, P, cover, labels = memo[key]
    return K, incl, P, cover if cover.target is rep else RepMap(P, rep, cover.mats), labels


class Resolution:
    """A minimal projective resolution computed up to a length bound, each
    step read from the algebra's presentation memo, so resolutions with
    equal syzygies share their tails."""

    def __init__(self, rep, max_len):
        self.rep = rep
        self.terms = []
        self.term_labels = []
        self.maps = []      # maps[k] : P_k -> P_{k-1} (maps[0] : P_0 -> rep)
        self.syzygies = []
        self.terminated = False
        self._incl = None   # the last syzygy's inclusion, the next map's end
        self._induced = {}  # (k, n) -> the Yoneda matrix of maps[k] into n
        self.extend(max_len)

    def extend(self, max_len):
        """Grow in place to the resolution Resolution(rep, max_len) would
        build, when that is longer."""
        while len(self.terms) <= max_len and not self.terminated:
            cur = self.syzygies[-1] if self.syzygies else self.rep
            if cur.is_zero():
                self.terminated = True
                break
            K, incl, P, cover, labels = _presentation(cur)
            self.maps.append(cover if self._incl is None else self._incl.compose(cover))
            self.terms.append(P)
            self.term_labels.append(labels)
            self.syzygies.append(K)
            self._incl = incl
        return self

    def induced(self, k, n):
        """_yoneda_induced of maps[k] into n, built once per (k, n): a map,
        once in the resolution, never changes."""
        if (k, n) not in self._induced:
            labels = self.term_labels
            self._induced[k, n] = _yoneda_induced(self.maps[k], labels[k], labels[k - 1], n)
        return self._induced[k, n]


def _flatten_map(phi):
    out = []
    for v in phi.source.algebra.vertices:
        for row in phi.mats[v].rows:
            out.extend(row)
    return out


def hom_coords(maps, basis):
    """Coordinates of maps in a basis of their common Hom space, from one
    solve with a right-hand column per map."""
    if not maps:
        return []
    f = maps[0].source.algebra.field
    flat = [_flatten_map(phi) for phi in maps]
    if not basis:
        if any(not f.is_zero(x) for vec in flat for x in vec):
            raise RepError("nonzero map in zero Hom space")
        return [[] for _ in maps]
    n = len(flat[0])
    A = Matrix.from_columns(f, [_flatten_map(b) for b in basis], nrows=n)
    sol = A.solve(Matrix.from_columns(f, flat, nrows=n))
    if sol is None:
        raise RepError("map not in span of Hom basis")
    return sol.columns()


def lift(pool, compose, targets, space):
    """Coordinate columns over the pool, a basis of maps, of maps x with
    compose(x) == t, one for each of the targets, which lie in the Hom
    space with the basis space; or None when some target is no such
    composite.  One solve serves every target; free coordinates are zero."""
    if not targets:
        return []
    f = targets[0].source.algebra.field
    coords = hom_coords([compose(phi) for phi in pool] + list(targets), space)
    A = Matrix.from_columns(f, coords[: len(pool)], nrows=len(space))
    sol = A.solve(Matrix.from_columns(f, coords[len(pool) :], nrows=len(space)))
    return None if sol is None else sol.columns()


def _generator_rows(algebra, labels):
    """The rows of the free module sum_j A e_{labels[j]} as projective_cover
    builds it: u -> the pairs (j, k), k a basis element from labels[j] to
    u.  Generator j is the row (j, idempotent index of labels[j])."""
    firsts = {v: _free_basis(algebra, {v: 1})[0] for v in set(labels)}
    return {
        u: [(j, k) for j, v in enumerate(labels) for k, _ in firsts[v].get(u, ())]
        for u in algebra.vertices
    }


def _action_columns(rep, k):
    """The columns of rep.action(k), built as lists: an idempotent's are
    unit vectors, an absent action's zero."""
    f, s, t = rep.algebra.field, rep.algebra.src(k), rep.algebra.tgt(k)
    if k in rep.act:
        return rep.act[k].columns()
    unit = rep.algebra.idempotent_index.get(s) == k
    return [[f.one if unit and i == j else f.zero for i in range(rep.dims[t])] for j in range(rep.dims[s])]


def yoneda_hom(P, labels, n):
    """Basis of Hom(P, n) for P = sum_j A e_{labels[j]}, a Resolution term
    with its term_labels.  A map out of A e_v sends e_v to any vector of
    e_v n and k = k e_v to k phi(e_v) (Yoneda), so the basis sends one
    generator to a unit vector of its e_v n and the others to zero, by
    generator and then unit vector: a map's coordinates are its values on
    the generators."""
    f = n.algebra.field
    rows = _generator_rows(n.algebra, labels)
    acts = {k: _action_columns(n, k) for k in {k for r in rows.values() for _, k in r}}
    zero = {u: [f.zero] * n.dims[u] for u in rows}

    def at(u, j, t):  # the map sending generator j to unit vector t, at u
        cols = [acts[k][t] if i == j else zero[u] for i, k in rows[u]]
        return Matrix.from_columns(f, cols, nrows=n.dims[u])

    return [RepMap(P, n, {u: at(u, j, t) for u in rows}) for j, v in enumerate(labels) for t in range(n.dims[v])]


def _yoneda_induced(d, labels, prev_labels, n):
    """phi -> phi . d : Hom(P', n) -> Hom(P, n) in yoneda_hom coordinates,
    for d : P -> P' between the free modules on labels and prev_labels.
    With d(g_j) = sum_a c_a a g'_i, phi(d(g_j)) = sum_a c_a a phi(g'_i):
    block (j, i) is sum_a c_a n.action(a)."""
    alg, f = n.algebra, n.algebra.field
    prev_rows, rows = _generator_rows(alg, prev_labels), _generator_rows(alg, labels)
    acts = {a: _action_columns(n, a) for a in {a for r in prev_rows.values() for _, a in r}}
    offs = list(accumulate((n.dims[v] for v in prev_labels), initial=0))
    out = []
    for j, v in enumerate(labels):
        block = [[f.zero] * offs[-1] for _ in range(n.dims[v])]
        col = rows[v].index((j, alg.idempotent_index[v]))
        for (i, a), drow in zip(prev_rows[v], d.mats[v].rows):
            if not f.is_zero(c := drow[col]):
                for t, acol in enumerate(acts[a], offs[i]):
                    for brow, x in zip(block, acol):
                        brow[t] = f.add(brow[t], f.mul(c, x))
        out += block
    return Matrix(f, out, offs[-1])


def ext_dims(res, n, nmax):
    """dim Ext^k(res.rep, n) for k = 0..nmax via res, a minimal projective
    resolution, with each Hom(P_k, n) in yoneda_hom coordinates.  Of a
    longer resolution only the terms these degrees need are read."""
    terms, labels = res.terms[: nmax + 2], res.term_labels[: nmax + 2]
    hom_dims = [sum(n.dims[v] for v in ls) for ls in labels]
    induced = [res.induced(k, n) for k in range(1, len(terms))]
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


def ext1_with_cocycles(m, n, presentation):
    """dim Ext^1(m, n) plus explicit cocycle representatives.

    presentation is syzygy(m).  Returns (dim, cocycles, context):
    cocycles are RepMaps from the first syzygy K of m into n spanning
    Ext^1 modulo coboundaries; context is (K, incl, P0, cover, hom_K,
    coboundaries), the last the image of Hom(P0, n) in coordinates of the
    basis hom_K of Hom(K, n).
    """
    K, incl, P0, cover, labels = presentation
    f = m.algebra.field
    hom_K = hom_space(K, n)
    d = len(hom_K)
    coboundaries = hom_coords([phi.compose(incl) for phi in yoneda_hom(P0, labels, n)], hom_K) if d else []
    units = [[f.one if i == j else f.zero for i in range(d)] for j in range(d)]
    chosen = [hom_K[j] for j in independent(f, units, d, base=coboundaries)]
    return len(chosen), chosen, (K, incl, P0, cover, hom_K, coboundaries)


def extension_middle(m, n, cocycle, context):
    """The middle term E of 0 -> n -> E -> m -> 0 built from a cocycle
    K -> n.

    E is the pushout (n + P0)/{(cocycle(k), -incl(k))}, for a context from
    ext1_with_cocycles.  Returns (E, split); split is True exactly when the
    class of the cocycle is zero, i.e. the cocycle is in the context's
    coboundaries (it extends to P0).
    """
    _, incl, P0, _, hom_K, coboundaries = context
    if cocycle.is_zero():
        raise ZeroClass("extension_middle needs a nonzero cocycle")
    f = m.algebra.field
    total = direct_sum([n, P0])
    graph = {}
    for v in m.algebra.vertices:
        pairs = zip(cocycle.mats[v].columns(), incl.mats[v].columns())
        graph[v] = Matrix.from_columns(f, [t + [f.neg(x) for x in b] for t, b in pairs], nrows=total.dims[v])
    E, _ = quotient_rep(total, graph)
    coords = hom_coords([cocycle], hom_K)[0]
    return E, not independent(f, [coords], len(hom_K), base=coboundaries)


# -- endomorphism algebras and decomposition ---------------------------------


def _basis_with_first(first, pool):
    """A basis of the span of first and the pool maps, whose first member
    is first."""
    f = first.source.algebra.field
    head = _flatten_map(first)
    vecs = [_flatten_map(phi) for phi in pool]
    return [first] + [pool[i] for i in independent(f, vecs, len(head), base=[head])]


def endomorphism_algebra(parts, names=None):
    """End(sum of parts)^op as a locally unital Algebra.

    Vertices are the parts; e_i A e_j is Hom(parts[i], parts[j]) and the
    product of x in e_i A e_j and y in e_j A e_l is the composite y after
    x, i.e. multiplication opposite to composition.  Returns
    (algebra, hom_bases) with hom_bases[(i, j)] the chosen basis of
    Hom(parts[i], parts[j]).
    """
    from .algebra import Algebra, BasisElement

    if names is None:
        names = [str(i) for i in range(len(parts))]
    f = parts[0].algebra.field
    hom_bases = {}
    for i, p in enumerate(parts):
        for j, q in enumerate(parts):
            hom_bases[(i, j)] = (
                _basis_with_first(identity_map(p), hom_space(p, p)) if i == j else hom_space(p, q)
            )
    basis_elems = []
    index = {}
    idempotents = {}
    for i, ni in enumerate(names):
        for j, nj in enumerate(names):
            for t in range(len(hom_bases[(i, j)])):
                idx = len(basis_elems)
                index[(i, j, t)] = idx
                basis_elems.append(BasisElement(f"h[{ni}->{nj}]{t}", nj, ni, None))
                if i == j and t == 0:
                    idempotents[ni] = idx
    mult = {}
    for i in range(len(parts)):
        for l in range(len(parts)):
            # every nonzero composite into Hom(parts[i], parts[l]), one solve
            keys, comps = [], []
            for j in range(len(parts)):
                for t, x in enumerate(hom_bases[(i, j)]):
                    for u, y in enumerate(hom_bases[(j, l)]):
                        comp = y.compose(x)
                        if not comp.is_zero():
                            keys.append((index[(i, j, t)], index[(j, l, u)]))
                            comps.append(comp)
            for key, coords in zip(keys, hom_coords(comps, hom_bases[(i, l)])):
                entries = tuple(
                    (index[(i, l, s)], c) for s, c in enumerate(coords) if not f.is_zero(c)
                )
                if entries:
                    mult[key] = entries
    alg = Algebra(f, names, basis_elems, idempotents, mult, generators=None)
    return alg, hom_bases


def decompose(rep):
    """The indecomposable direct summands of rep, with repeats: the images
    of an idempotent endomorphism e (_find_idempotent_map) and of 1 - e,
    split in turn until the same routine certifies each indecomposable.
    The summands come depth first, the image of e before that of 1 - e."""
    if rep.is_zero():
        return []
    out, todo = [], [rep]
    while todo:
        p = todo.pop()
        if (e := _find_idempotent_map(p)) is None:
            out.append(p)
        else:
            todo += [image_sub(idem)[0] for idem in (identity_map(p) - e, e)]
    return out


def _minimal_polynomial(x):
    """Minimal polynomial of the endomorphism x, as a coefficient list with
    leading coefficient one: the first power of x in the span of the lower
    ones, one solve per power."""
    f = x.source.algebra.field
    cur = identity_map(x.source)
    vecs = [_flatten_map(cur)]
    while True:
        cur = cur.compose(x)
        v = _flatten_map(cur)
        sol = Matrix.from_columns(f, vecs, nrows=len(v)).solve(Matrix.from_columns(f, [v], nrows=len(v)))
        if sol is not None:
            col = sol.column(0)
            return [f.one] + [f.neg(c) for c in reversed(col)]
        vecs.append(v)


def _find_idempotent_map(rep):
    """An idempotent endomorphism of rep other than 0 and 1, or None, which
    certifies that End(rep)/rad is the ground field: rep is indecomposable
    (Fitting).  Both certificates read one basis b_i of End(rep), the
    identity first.  Where the characteristic is 0 or exceeds dim End(rep)
    and every dim rep_v, the trace form decides None; otherwise, or where
    the form finds rep decomposable, the search decides.

    The trace form stacks the per-vertex Gram matrices tr(b_i,v b_j,v).
    Its kernel K = {x : tr(y_v x_v) = 0 for all y and v} is a two-sided
    ideal, as tr(y z x) = tr((y z) x) and tr(y x z) = tr((z y) x).  With
    y = x^(k-1), tr(x_v^k) = 0 for all k, so x_v is nilpotent when the
    characteristic is 0 or exceeds dim rep_v: K = rad End(rep), as y x is
    nilpotent for x in the radical, and rank 1 means End/rad = k.

    The search's candidates are the b_i, then the composites n_j n_i of
    their nilpotent parts n_i = b_i - lambda_i, lambda_i the only eigenvalue
    of b_i.  Eigenvalues are the roots of the minimal polynomial as a map of
    rep, those in End/rad too, rad End(rep) being nilpotent.  A candidate x
    with eigenvalues lambda and mu_1, ... gives prod (x - mu)/(lambda - mu),
    with the eigenvalues 0 and 1, which Newton's iteration makes
    idempotent.  Its None holds in every characteristic.  If no candidate
    has two eigenvalues, every n_i is nilpotent, and so is every n_j n_i:
    one that is not is singular in every simple block B of End/rad, so has
    the eigenvalues 0 and some mu != 0 (or raises NotSplit).  The images of
    1 and the n_i span B, and the trace form of B (its reduced trace, then
    the trace of its centre over k), nondegenerate in every characteristic
    as Q and F_p are perfect, vanishes on them except at (1, 1): B = k.
    """
    f = rep.algebra.field
    ident = identity_map(rep)
    basis = _basis_with_first(ident, hom_space(rep, rep))
    if local := _trace_form_is_local(rep, basis):
        return None
    nilpotent = []
    # drawn only after the basis has filled nilpotent
    products = (b.compose(a) for a in nilpotent for b in nilpotent)
    for x in chain(basis, products):
        found = roots(_minimal_polynomial(x), f)
        if len(found) > 1:
            break
        if len(nilpotent) < len(basis):
            nilpotent.append(x - ident.scale(found[0]))
    else:
        if local is False:
            raise RepError("no candidate has two eigenvalues on a decomposable module")
        return None
    lam, others = found[0], found[1:]
    num, denom = ident, f.one
    for mu in others:
        num = num.compose(x - ident.scale(f.of(mu)))
        denom = f.mul(denom, f.sub(f.of(lam), f.of(mu)))
    return _newton_idempotent(num.scale(f.inv(denom)), rep)


def _newton_idempotent(e, rep):
    """Iterate e -> 3e^2 - 2e^3 until exactly idempotent.  e has the
    eigenvalues 0 and 1 only, so u = e^2 - e is nilpotent, and a step maps
    u to u^2 (4u - 3), halving its nilpotency index: bit_length(dim rep)
    steps reach u = 0.  An idempotent 0 or 1 means e did not take both
    eigenvalues; either failure is a fault."""
    f = rep.algebra.field
    three, two = f.of(3), f.of(2)
    for _ in range(rep.total_dim().bit_length() + 1):
        e2 = e.compose(e)
        if e2 == e:
            if e.is_zero() or e == identity_map(rep):
                break
            return e
        e = e2.scale(three) - e2.compose(e).scale(two)
    raise RepError("Newton's iteration gave no idempotent other than 0 and 1")


def _trace_form_is_local(rep, basis):
    """Whether the trace form of the End(rep) basis has rank 1, or None over
    F_p with p <= len(basis) or p <= some dim rep_v (_find_idempotent_map)."""
    f = rep.algebra.field
    if f.characteristic and f.characteristic <= max(len(basis), *rep.dims.values()):
        return None
    rows = []
    for v in (v for v, d in rep.dims.items() if d):
        # tr(a b) sums the entrywise product of a with the transpose of b
        flat = [list(chain.from_iterable(phi.mats[v].rows)) for phi in basis]
        flat_t = [list(chain.from_iterable(phi.mats[v].columns())) for phi in basis]
        rows += [[f.of(sum(map(mul, a, b))) for b in flat_t] for a in flat]
    return Matrix(f, rows, len(basis)).rank() == 1


def is_indecomposable(rep):
    """Whether rep is nonzero and indecomposable, by the certificate
    _find_idempotent_map names for its field: the trace form alone where it
    reads the radical, and the idempotent search where it does not."""
    if rep.is_zero():
        return False
    local = _trace_form_is_local(rep, hom_space(rep, rep))
    return _find_idempotent_map(rep) is None if local is None else local


def isomorphism(m, n):
    """An isomorphism m -> n, or None; either answer is a certificate.

    Walks the Hom basis.  The walk is complete when End(n) is local: if
    theta = sum c_i phi_i is an isomorphism, then id = sum c_i phi_i
    theta^-1 lies outside rad End(n), so some phi_i theta^-1 is a unit and
    phi_i is an isomorphism.  So None is certified by n being
    indecomposable (Fitting): by a simple head or socle, since n = n1 + n2
    with both nonzero has the head h(n1) + h(n2) and the socle s(n1) +
    s(n2), each with two nonzero parts; or else by is_indecomposable.  A
    failed walk onto a decomposable n decides nothing and raises RepError.
    """
    if m.dim_vector() != n.dim_vector():
        return None
    if m.total_dim() == 0:
        return RepMap(m, n, {})
    phi = next((phi for phi in hom_space(m, n) if phi.is_isomorphism()), None)
    if phi is not None:
        return phi
    if sum(head_constituents(n).values()) == 1 or sum(socle_constituents(n).values()) == 1 or is_indecomposable(n):
        return None
    raise RepError("no Hom-basis map is an isomorphism and the target is decomposable")
