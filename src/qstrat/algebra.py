"""Finite-dimensional locally unital algebras presented by quivers with
relations.

An algebra is stored by its basis of normal-form paths together with the
full table of structure constants, so that quotients, corners, opposites
and endomorphism algebras can all be represented uniformly.  Normal forms
are computed by tip reduction in the deglex order (length first, then
left-to-right comparison in a fixed arrow order); overlaps are completed
up to twice the degree bound, which is enough to make reduction of any
product of two basis words confluent.

Conventions.  A path (a_1, ..., a_k) denotes the composite with a_k
applied first, so a product of paths u * v concatenates as u followed by
v on the right.  An element of e_i A e_j is a combination of paths with
source j and target i.
"""

from __future__ import annotations

import itertools
import weakref
from collections import namedtuple

from .exactla import Matrix, field_from_name, integer, reduced_span, span_pivots, span_rref


class AlgebraError(ValueError):
    pass


class NotFiniteDimensionalWithinBound(AlgebraError):
    """A normal word of length degree_bound survives reduction."""


Arrow = namedtuple("Arrow", ("name", "src", "tgt"))


class QuiverPresentation:
    """A quiver with relations over an exact field.

    relations: list of linear combinations [(coeff, path)], each path a
    tuple of arrow names with the rightmost arrow applied first; all paths
    in one relation must share source and target.
    """

    def __init__(self, field, vertices, arrows, relations, degree_bound):
        self.field = field
        self.vertices = vertices
        self.arrows = arrows
        self.relations = relations
        self.degree_bound = degree_bound
        if degree_bound < 1:
            raise AlgebraError(f"degree_bound must be at least 1, got {degree_bound}")
        names = [a.name for a in self.arrows]
        if len(set(names)) != len(names):
            raise AlgebraError("duplicate arrow names")
        if len(set(self.vertices)) != len(self.vertices):
            raise AlgebraError("duplicate vertex names")
        if set(names) & set(self.vertices):
            raise AlgebraError("arrow and vertex names must be disjoint")
        self._arrow = {a.name: a for a in self.arrows}
        for rel in self.relations:
            sig = None
            for _, path in rel:
                if not path:
                    continue  # length-0 paths take their signature from the rest
                s, t = self.path_signature(path)
                if sig is None:
                    sig = (s, t)
                elif sig != (s, t):
                    raise AlgebraError(f"mixed source/target in relation {rel}")
            if sig is None:
                raise AlgebraError("a relation needs at least one positive-length path")
            if any(not path for _, path in rel) and sig[0] != sig[1]:
                raise AlgebraError("a length-0 path needs matching source and target")

    def path_signature(self, path):
        """(source, target) of a composable path; raises if not composable."""
        if not path:
            raise AlgebraError("length-0 path has no intrinsic signature")
        arrows = [self._arrow[n] for n in path]
        for left, right in zip(arrows, arrows[1:]):
            if right.tgt != left.src:
                raise AlgebraError(f"path {path} is not composable")
        return arrows[-1].src, arrows[0].tgt

    def to_json(self):
        return {
            "field": self.field.name,
            "vertices": list(self.vertices),
            "arrows": [{"name": a.name, "src": a.src, "tgt": a.tgt} for a in self.arrows],
            "relations": [
                [{"coeff": self.field.to_str(c), "path": list(p)} for c, p in rel]
                for rel in self.relations
            ],
            "degree_bound": self.degree_bound,
        }

    @staticmethod
    def from_json(data):
        fld = field_from_name(data["field"])
        bound = integer(data.get("degree_bound", 12))
        if bound is None:
            raise AlgebraError(f"degree_bound must be an integer, not {data['degree_bound']!r}")
        arrows = [Arrow(a["name"], a["src"], a["tgt"]) for a in data["arrows"]]
        rels = [
            [(fld.of(term["coeff"]), tuple(term["path"])) for term in rel]
            for rel in data["relations"]
        ]
        return QuiverPresentation(
            field=fld,
            vertices=list(data["vertices"]),
            arrows=arrows,
            relations=rels,
            degree_bound=bound,
        )


BasisElement = namedtuple("BasisElement", ("name", "src", "tgt", "word"))
BasisElement.__doc__ = """One basis vector of the algebra: lives in e_tgt A e_src; word is
its arrow-name tuple for path algebras, else None."""


class AlgElement:
    """An element of an Algebra: sparse coefficient vector over its basis."""

    __slots__ = ("algebra", "coeffs")

    def __init__(self, algebra, coeffs):
        f = algebra.field
        self.algebra = algebra
        self.coeffs = {k: c for k, c in coeffs.items() if not f.is_zero(c)}

    def __add__(self, other):
        self._check(other)
        f = self.algebra.field
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = f.add(out.get(k, f.zero), c)
        return AlgElement(self.algebra, out)

    def __sub__(self, other):
        self._check(other)
        f = self.algebra.field
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = f.sub(out.get(k, f.zero), c)
        return AlgElement(self.algebra, out)

    def scale(self, c):
        f = self.algebra.field
        c = f.of(c)
        return AlgElement(self.algebra, {k: f.mul(c, v) for k, v in self.coeffs.items()})

    def __mul__(self, other):
        self._check(other)
        return self.algebra.multiply(self, other)

    def __eq__(self, other):
        return isinstance(other, AlgElement) and self.algebra is other.algebra and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(tuple(sorted(self.coeffs.items(), key=lambda kv: kv[0])))

    def is_zero(self):
        return not self.coeffs

    def dense(self):
        f = self.algebra.field
        v = [f.zero] * self.algebra.dim
        for k, c in self.coeffs.items():
            v[k] = c
        return v

    def signature(self):
        """(src, tgt) if homogeneous, else None."""
        sigs = {(self.algebra.basis[k].src, self.algebra.basis[k].tgt) for k in self.coeffs}
        return sigs.pop() if len(sigs) == 1 else None

    def _check(self, other):
        if self.algebra is not other.algebra:
            raise AlgebraError("elements of different algebras")

    def __repr__(self):
        f = self.algebra.field
        terms = [
            f"{f.to_str(c)}*{self.algebra.basis[k].name}"
            for k, c in sorted(self.coeffs.items())
        ]
        return " + ".join(terms) if terms else "0"


class Algebra:
    """A finite-dimensional locally unital algebra with a fixed basis.

    basis[k] records the (src, tgt) grading of the k-th basis vector; the
    distinguished idempotents appear in the basis, one per vertex.  The
    multiplication table maps (k, l) to a sparse list of (m, coeff) with
    b_k * b_l = sum coeff * b_m; absent keys mean the product is zero.
    """

    def __init__(self, field, vertices, basis, idempotents, mult, generators=None, presentation=None):
        self.field = field
        self.vertices = tuple(vertices)
        self.basis = tuple(basis)
        self.dim = len(basis)
        self.idempotent_index = dict(idempotents)  # vertex -> basis index
        self.mult = mult
        self.presentation = presentation
        self._opposite = None
        self._radical = None
        self.verified = False  # True once verify() has passed
        self._lower = {}  # frozenset(killed vertices) -> (quotient, TruncationMap)
        self._upper = {frozenset(self.vertices): self}  # frozenset(kept vertices) -> corner algebra
        self._families = {}  # strat_key -> standard modules, filled by strat.StandardFamily
        self._tilts = {}  # (signed strat_key, label) -> tilting module, filled by tilting._tilt
        self._free_bases = {}  # copies -> the free module's basis, filled by rep._free_basis
        self._syzygies = {}  # module content key -> its syzygy, filled by rep._presentation
        if generators is None:
            generators = tuple(
                k for k in range(self.dim) if k not in set(self.idempotent_index.values())
            )
        self.generators = tuple(generators)
        self.by_grade = {}
        for k, b in enumerate(self.basis):
            self.by_grade.setdefault((b.tgt, b.src), []).append(k)

    # -- basic accessors --------------------------------------------------

    def graded_dims(self):
        """dict (i, j) -> dim e_i A e_j, zero pairs omitted."""
        return {g: len(ks) for g, ks in self.by_grade.items()}

    def idempotent(self, vertex):
        return self.element({self.idempotent_index[vertex]: self.field.one})

    def element(self, coeffs):
        return AlgElement(self, {k: self.field.of(c) for k, c in coeffs.items()})

    def src(self, k):
        return self.basis[k].src

    def tgt(self, k):
        return self.basis[k].tgt

    # -- multiplication ---------------------------------------------------

    def multiply(self, x, y):
        f = self.field
        out = {}
        for k, ck in x.coeffs.items():
            for l, cl in y.coeffs.items():
                prod = self.mult.get((k, l))
                if not prod:
                    continue
                c = f.mul(ck, cl)
                for m, cm in prod:
                    out[m] = f.add(out.get(m, f.zero), f.mul(c, cm))
        return AlgElement(self, out)

    def verify(self):
        """Check unit and associativity axioms on the structure constants.

        Associativity is checked on every graded triple: (k, l, m) with
        src k = tgt l and src l = tgt m, listed from per-target-vertex index
        lists in lexicographic order.  (b_k b_l) b_m and b_k (b_l b_m) are
        summed straight from the table, and a triple is skipped only when
        both b_k b_l and b_l b_m are absent, since then both sides are zero.
        A pass is remembered (a failure is not) in self.verified.
        """
        if self.verified:
            return True
        f, mult = self.field, self.mult
        units = set(self.idempotent_index.values())
        left, right = {}, {}  # k -> (sum of e) * b_k, b_k * (sum of e)
        for (k, l), prod in mult.items():
            for side, e, b in ((left, k, l), (right, l, k)):
                if e in units:
                    acc = side.setdefault(b, {})
                    for m, c in prod:
                        acc[m] = f.add(acc.get(m, f.zero), c)
        for k in range(self.dim):
            if _nonzero(f, left.get(k, {})) != {k: f.one} or _nonzero(f, right.get(k, {})) != {k: f.one}:
                raise AlgebraError(f"identity fails on basis element {k}")
        for (k, l), prod in mult.items():
            if self.src(k) != self.tgt(l):
                raise AlgebraError(f"grading violated by product ({k},{l})")
            for m, _ in prod:
                if self.tgt(m) != self.tgt(k) or self.src(m) != self.src(l):
                    raise AlgebraError(f"grading violated in product ({k},{l})")
        for k, l, m in self._checked_triples():
            kl, lm = mult.get((k, l)), mult.get((l, m))
            if not kl and not lm:
                continue
            lhs, rhs = {}, {}
            for p, c in kl or ():
                for q, d in mult.get((p, m), ()):
                    lhs[q] = f.add(lhs.get(q, f.zero), f.mul(c, d))
            for p, c in lm or ():
                for q, d in mult.get((k, p), ()):
                    rhs[q] = f.add(rhs.get(q, f.zero), f.mul(c, d))
            if lhs != rhs and _nonzero(f, lhs) != _nonzero(f, rhs):
                raise AlgebraError(f"associativity fails at ({k},{l},{m})")
        self.verified = True
        return True

    def _checked_triples(self):
        """The composable triples verify checks, in lexicographic order."""
        into = _by_target(self.basis)
        return (
            (k, l, m)
            for k, b in enumerate(self.basis)
            for l in into.get(b.src, ())
            for m in into.get(self.src(l), ())
        )

    # -- radical ----------------------------------------------------------

    def radical_basis(self):
        """Basis of the Jacobson radical: the kernel K of the trace form
        tr(L_(b_k b_l)) of the left regular representation.

        Valid over Q, or over F_p with p > every dim e_v A; otherwise raises
        CharTooSmall.  Lemma: K is a two-sided ideal holding rad A, as
        tr(L_(y z x)) = tr(L_((y z) x)), tr(L_(y x z)) = tr(L_((z y) x)) and
        y x is nilpotent for x in rad A.  For z in e_v K e_v, tr(L_z^k) = 0
        for all k and L_z lives on e_v A, so z is nilpotent if p > dim e_v A;
        an ideal whose corners e_v K e_v are nil lies in rad A.  The opposite
        shares the radical where its own bound allows: same subspace, same
        rref kernel basis.
        """
        if self._radical is not None:
            return self._radical
        p = self.field.characteristic
        if p and p <= (bound := max(map(len, _by_target(self.basis).values()), default=0)):
            raise CharTooSmall(f"radical needs characteristic 0 or > max dim e_v A = {bound}")
        if getattr(self._opposite, "_radical", None) is not None:
            self._radical = [AlgElement(self, r.coeffs) for r in self._opposite._radical]
            return self._radical
        f = self.field
        # trace of left multiplication by each basis element
        tr = []
        for k in range(self.dim):
            s = f.zero
            for l in range(self.dim):
                prod = self.mult.get((k, l))
                if prod:
                    for m, c in prod:
                        if m == l:
                            s = f.add(s, c)
            tr.append(s)
        # Gram matrix G[k][l] = trace(L_{b_k b_l})
        rows = []
        for k in range(self.dim):
            row = [f.zero] * self.dim
            for l in range(self.dim):
                prod = self.mult.get((k, l))
                if prod:
                    s = f.zero
                    for m, c in prod:
                        s = f.add(s, f.mul(c, tr[m]))
                    row[l] = s
            rows.append(row)
        ker = Matrix(f, rows, self.dim).kernel()
        rad = [AlgElement(self, {i: ker.rows[i][j] for i in range(self.dim)}) for j in range(ker.ncols)]
        self._radical = rad
        return rad

    def is_semisimple(self):
        return not self.radical_basis()

    # -- derived algebras ---------------------------------------------------

    def opposite(self):
        """The opposite algebra on the same basis, with grading swapped.

        Taking the opposite twice returns the original object.
        """
        if self._opposite is not None:
            return self._opposite
        basis = [BasisElement(b.name, b.tgt, b.src, None) for b in self.basis]
        mult = {(l, k): prod for (k, l), prod in self.mult.items()}
        opp = Algebra(
            self.field,
            self.vertices,
            basis,
            self.idempotent_index,
            mult,
            generators=self.generators,
        )
        opp._opposite = self
        self._opposite = opp
        return opp

    def _ideal_span(self, kill):
        """Row-space rref of the ideal A e_K A, K = kill, in basis
        coordinates, block by block: e_x A e_y lies in it whole when x or y
        is in K, and is otherwise spanned by the products
        (e_x A e_c)(e_c A e_y), c in K.  The blocks sit on disjoint
        coordinates, so the union of their rrefs is the rref of the ideal."""
        f = self.field
        rows = []  # (pivot, {basis index: entry})
        for (x, y), ks in self.by_grade.items():
            if x in kill or y in kill:
                rows += [(k, {k: f.one}) for k in ks]
                continue
            local = {k: i for i, k in enumerate(ks)}
            vecs = []
            for c in kill:
                for k in self.by_grade.get((x, c), ()):
                    for l in self.by_grade.get((c, y), ()):
                        if (k, l) in self.mult:
                            vec = [f.zero] * len(ks)
                            for m, a in self.mult[(k, l)]:
                                vec[local[m]] = f.add(vec[local[m]], a)
                            vecs.append(vec)
            block = span_rref(f, vecs, len(ks))
            rows += [(ks[p], dict(zip(ks, row))) for row, p in zip(block.rows, span_pivots(block))]
        return reduced_span(f, rows, self.dim)

    def truncate_lower(self, kill):
        """Quotient by the two-sided ideal generated by the idempotents of
        the killed vertices.  Returns (quotient, TruncationMap), memoized per
        vertex set: equal sets give the identical objects, the empty set
        gives the algebra itself, and a quotient with the content of a live
        algebra is that algebra (see _shared)."""
        kill = frozenset(kill)
        if kill not in self._lower:
            self._lower[kill] = self._truncate_lower(kill)
        return self._lower[kill]

    def _truncate_lower(self, kill):
        unknown = kill - set(self.vertices)
        if unknown:
            raise AlgebraError(f"unknown vertices {sorted(unknown)}")
        f = self.field
        if not kill:
            images = tuple(((k, f.one),) for k in range(self.dim))
            return self, TruncationMap(self, self, tuple(range(self.dim)), images)
        ideal = self._ideal_span(kill)
        pivots = span_pivots(ideal)
        pivot_set = set(pivots)
        keep = tuple(k for k in range(self.dim) if k not in pivot_set)
        new_index = {k: i for i, k in enumerate(keep)}
        # the image of b_k in the quotient: a kept element maps to itself,
        # a pivot column to minus the non-pivot part of its rref row
        images = {k: ((i, f.one),) for k, i in new_index.items()}
        for row, p in zip(ideal.rows, pivots):
            images[p] = tuple(
                (new_index[j], f.neg(a)) for j, a in enumerate(row) if j != p and not f.is_zero(a)
            )
        images = tuple(images[k] for k in range(self.dim))
        if any(self.src(k) in kill or self.tgt(k) in kill for k in keep):
            raise AlgebraError("ideal misses a graded piece it must contain")
        # the images of the generators generate the quotient, and so do
        # their supports, since each image is a combination of its support
        gens = tuple(dict.fromkeys(i for g in self.generators for i, _ in images[g]))
        vertices = [v for v in self.vertices if v not in kill]
        quotient = self._assemble(vertices, keep, images, gens)
        return quotient, TruncationMap(self, quotient, keep, images)

    def truncate_upper(self, keep):
        """Corner algebra e A e for e the sum of the kept idempotents,
        memoized per vertex set: equal sets give the identical object, the
        whole vertex set gives the algebra itself, and a corner with the
        content of a live algebra is that algebra (see _shared)."""
        keep = frozenset(keep)
        if keep not in self._upper:
            self._upper[keep] = self._truncate_upper(keep)
        return self._upper[keep]

    def _truncate_upper(self, keep):
        unknown = keep - set(self.vertices)
        if unknown:
            raise AlgebraError(f"unknown vertices {sorted(unknown)}")
        sel = self.corner_positions(keep)
        # products of corner elements stay in the corner
        images = {k: ((i, self.field.one),) for i, k in enumerate(sel)}
        return self._assemble([v for v in self.vertices if v in keep], sel, images, None)

    def corner_positions(self, vertices):
        """The indices of the basis elements with both ends among the
        vertices, ascending: the corner's basis on those vertices, in its
        order."""
        vertices = set(vertices)
        return [k for k, b in enumerate(self.basis) if b.src in vertices and b.tgt in vertices]

    def _assemble(self, vertices, keep, images, generators):
        """The algebra on the basis elements keep whose products are those
        of two kept elements pushed through images (source index -> sparse
        tuple of (new index, coefficient)), as _shared gives it."""
        f = self.field
        new_index = {k: i for i, k in enumerate(keep)}
        mult = {}
        for (k, l), prod in self.mult.items():
            if k in new_index and l in new_index:
                red = {}
                for m, c in prod:
                    for n, a in images[m]:
                        red[n] = f.add(red.get(n, f.zero), f.mul(c, a))
                entries = tuple(sorted((n, c) for n, c in red.items() if not f.is_zero(c)))
                if entries:
                    mult[(new_index[k], new_index[l])] = entries
        idempotents = {v: new_index[self.idempotent_index[v]] for v in vertices}
        basis = [self.basis[k] for k in keep]
        return _shared(Algebra(f, vertices, basis, idempotents, mult, generators=generators))

    def to_json(self):
        return {
            "field": self.field.name,
            "vertices": list(self.vertices),
            "basis": [
                {"name": b.name, "src": b.src, "tgt": b.tgt, "word": list(b.word) if b.word else None}
                for b in self.basis
            ],
            "idempotents": {str(v): k for v, k in self.idempotent_index.items()},
            "mult": [
                [k, l, [[m, self.field.to_str(c)] for m, c in prod]]
                for (k, l), prod in sorted(self.mult.items())
            ],
        }

    @staticmethod
    def from_json(data):
        """Rebuild an algebra from structure-constant JSON (the inverse of
        to_json), unverified."""
        fld = field_from_name(data["field"])
        basis = [
            BasisElement(
                b["name"], b["src"], b["tgt"], tuple(b["word"]) if b.get("word") else None
            )
            for b in data["basis"]
        ]

        def index(k):
            i = integer(k)
            if i is None or not 0 <= i < len(basis):
                raise AlgebraError(f"basis index {k!r} outside 0..{len(basis) - 1}")
            return i

        mult = {
            (index(k), index(l)): tuple((index(m), fld.of(c)) for m, c in prod)
            for k, l, prod in data["mult"]
        }
        return Algebra(
            fld,
            [str(v) for v in data["vertices"]],
            basis,
            {str(v): index(k) for v, k in data["idempotents"].items()},
            mult,
        )

    def __repr__(self):
        return f"Algebra(dim={self.dim}, vertices={list(self.vertices)})"


# content hash -> the live algebra of that content; the key is a hash, so
# the table holds no copy of any content
_SHARED = weakref.WeakValueDictionary()


def _content_hash(alg):
    return hash((
        alg.field.name, alg.vertices, alg.basis,
        tuple(alg.idempotent_index.items()), frozenset(alg.mult.items()),
    ))


def _shared(alg):
    """The live algebra with alg's content (field, vertex order, basis,
    idempotents in their order and structure constants: all that to_json
    writes), registering alg when there is none.  A hash hit is compared
    in full, so distinct contents are never merged.  Derived algebras go
    through here, so a corner or quotient equal to an algebra already in
    hand (a smaller window of the same family, say) is that algebra, with
    its memos."""
    key = _content_hash(alg)
    held = _SHARED.get(key)
    if held is None:
        _SHARED[key] = alg
        return alg
    same = (
        held.field.name == alg.field.name and held.vertices == alg.vertices
        and held.basis == alg.basis and held.mult == alg.mult
        and list(held.idempotent_index.items()) == list(alg.idempotent_index.items())
    )
    return held if same else alg


class CharTooSmall(AlgebraError):
    """F_p radical computation requested with p <= some dim e_v A."""


def _by_target(basis):
    """vertex -> the indices of the basis elements with that target, ascending."""
    out = {}
    for k, b in enumerate(basis):
        out.setdefault(b.tgt, []).append(k)
    return out


def _nonzero(f, coeffs):
    return {k: c for k, c in coeffs.items() if not f.is_zero(c)}


class TruncationMap:
    """Surjection data A -> A/(ideal); lets modules be inflated back.

    keep lists the source basis indices that survive, in quotient order;
    images[k] is the image of source basis element k, a sparse tuple of
    (quotient index, coefficient) pairs.
    """

    def __init__(self, source, quotient, keep, images):
        self.source = source
        self.quotient = quotient
        self.keep = keep
        self.images = images

    def push(self, x: AlgElement) -> AlgElement:
        f = self.quotient.field
        out = {}
        for k, c in x.coeffs.items():
            for i, a in self.images[k]:
                out[i] = f.add(out.get(i, f.zero), f.mul(c, a))
        return AlgElement(self.quotient, out)


# -- construction from a presentation --------------------------------------


class _Rewriter:
    """Bounded tip-reduction engine for one presentation.

    No rule is ever deleted, so a tip's insertion rank is its place in
    `rules`.  Tips are found through the rank of each tip plus the set of
    tip lengths.  Completion takes the tips a new tip can overlap from two
    per-letter indexes, tips by first letter and tips by the letters they
    contain, each list in rank order, and skips a pair of monomial rules:
    both sides of their ambiguities rewrite to 0.
    """

    def __init__(self, pres: QuiverPresentation):
        self.pres = pres
        self.field = pres.field
        self.arrow_order = {a.name: i for i, a in enumerate(pres.arrows)}
        self.arrow = {a.name: a for a in pres.arrows}
        # rules: tip word -> dict of lower words (poly = tip - rhs)
        self.rules = {}
        self.rank = {}
        self.tip_lengths = set()
        self.by_first = {}  # letter -> tips that start with it
        self.by_letter = {}  # letter -> tips that contain it

    def word_key(self, w):
        return (len(w), tuple(self.arrow_order[a] for a in w))

    def normalize_poly(self, poly):
        """Combine duplicate words, drop zeros."""
        f = self.field
        out = {}
        for c, w in poly:
            if f.is_zero(c):
                continue
            out[w] = f.add(out.get(w, f.zero), c)
        return {w: c for w, c in out.items() if not f.is_zero(c)}

    def reduce(self, poly, bound):
        """Fully reduce a polynomial {word: coeff} modulo the rules; words
        longer than the bound are discarded (they lie in the truncation
        ideal used only during completion)."""
        f = self.field
        work = dict(poly)
        done = {}
        while work:
            w = max(work, key=self.word_key)
            c = work.pop(w)
            if f.is_zero(c):
                continue
            if len(w) > bound:
                continue
            hit = self._find_rule(w)
            if hit is None:
                done[w] = f.add(done.get(w, f.zero), c)
                continue
            pre, _, post, rhs = hit
            for w2, c2 in rhs.items():
                nw = pre + w2 + post
                nc = f.mul(c, c2)
                work[nw] = f.add(work.get(nw, f.zero), nc)
        return {w: c for w, c in done.items() if not f.is_zero(c)}

    def _find_rule(self, w):
        """The earliest-inserted rule whose tip occurs in w, at its leftmost
        occurrence, as (prefix, tip, suffix, rhs); None if w is normal."""
        n = len(w)
        best = None
        for t in self.tip_lengths:
            for s in range(n - t + 1):
                r = self.rank.get(w[s : s + t])
                if r is not None and (best is None or r < best[0]):
                    best = (r, s, t)
        if best is None:
            return None
        _, s, t = best
        tip = w[s : s + t]
        return (w[:s], tip, w[s + t :], self.rules[tip])

    def add_rule(self, poly, bound):
        """Orient a reduced polynomial into a rewrite rule; returns tip."""
        f = self.field
        if not poly:
            return None
        tip = max(poly, key=self.word_key)
        if not tip:
            raise AlgebraError("a relation forces a vertex idempotent into the ideal")
        c = poly[tip]
        rhs = {w: f.neg(f.div(cw, c)) for w, cw in poly.items() if w != tip}
        # a reduced polynomial's tip holds no tip, so it is a new one
        self.rules[tip] = rhs
        self.rank[tip] = len(self.rank)
        self.tip_lengths.add(len(tip))
        self.by_first.setdefault(tip[0], []).append(tip)
        for a in dict.fromkeys(tip):
            self.by_letter.setdefault(a, []).append(tip)
        return tip

    def complete(self, bound):
        """Overlap completion up to the given total degree."""
        f = self.field
        # seed rules from the input relations
        queue = []
        for rel in self.pres.relations:
            poly = self.normalize_poly(rel)
            queue.append(poly)
        while queue:
            poly = queue.pop()
            red = self.reduce(poly, bound)
            if not red:
                continue
            tip = self.add_rule(red, bound)
            # ambiguities of the new tip with the existing tips, both orders,
            # in rank order; t2 overlaps or sits inside t1 only if t2's first
            # letter is in t1
            firsts = (self.by_first.get(a, ()) for a in dict.fromkeys(tip))
            new_pairs = [(tip, t2) for t2 in sorted(itertools.chain(*firsts), key=self.rank.__getitem__)]
            new_pairs += [(t2, tip) for t2 in self.by_letter[tip[0]]]
            for t1, t2 in new_pairs:
                if not self.rules[t1] and not self.rules[t2]:
                    continue  # two monomial rules: both sides rewrite to 0
                for ov, pos2 in self._overlaps(t1, t2):
                    if len(ov) > bound:
                        continue
                    s1 = self._subst(ov, t1, self.rules[t1], 0)
                    s2 = self._subst(ov, t2, self.rules[t2], pos2)
                    diff = dict(s1)
                    for w, c in s2.items():
                        nc = f.sub(diff.get(w, f.zero), c)
                        if f.is_zero(nc):
                            diff.pop(w, None)
                        else:
                            diff[w] = nc
                    if diff:
                        queue.append(diff)

    def _subst(self, word, tip, rhs, pos):
        """One rewriting step at a fixed occurrence of a tip."""
        pre, post = word[:pos], word[pos + len(tip):]
        return {pre + w2 + post: c for w2, c in rhs.items()}

    def _overlaps(self, t1, t2):
        """Ambiguity words: t1 as a prefix overlapping a t2-suffix, and t2
        contained in t1.  Yields (word, position of the t2 occurrence)."""
        out = []
        n1, n2 = len(t1), len(t2)
        # t1 = u v, t2 = v w with v nonempty: ambiguity word u v w
        for k in range(1, min(n1, n2)):
            if t1[n1 - k:] == t2[:k]:
                w = t1 + t2[k:]
                if self._composable(w):
                    out.append((w, n1 - k))
        # containment: t2 strictly inside t1
        if n1 != n2:
            for s in range(0, n1 - n2 + 1):
                if t1[s: s + n2] == t2:
                    out.append((t1, s))
        return out

    def _composable(self, w):
        for left, right in zip(w, w[1:]):
            if self.arrow[right].tgt != self.arrow[left].src:
                return False
        return True

    def normal_words(self, max_len):
        """All composable rule-free words of length <= max_len, by length.

        Entries are (word, source vertex); length-0 entries stand for the
        vertex idempotents.
        """
        out = {0: [((), v) for v in self.pres.vertices]}
        frontier = []
        into = {}  # vertex -> the arrows into it, in presentation order
        for a in self.pres.arrows:
            into.setdefault(a.tgt, []).append(a)
            w = (a.name,)
            if not self._find_rule_fast(w):
                frontier.append((w, a.src))
        out[1] = frontier
        for length in range(2, max_len + 1):
            nxt = []
            for w, s in frontier:
                # extend on the right: the appended arrow is applied first,
                # so its target must match the source of the current word
                for a in into.get(s, ()):
                    nw = w + (a.name,)
                    if self._find_rule_fast(nw):
                        continue
                    nxt.append((nw, a.src))
            out[length] = nxt
            frontier = nxt
            if not frontier:
                break
        return out

    def _find_rule_fast(self, w):
        # only need to test suffix-aligned occurrences when growing words on
        # the right one letter at a time
        n = len(w)
        return any(w[n - t :] in self.rank for t in self.tip_lengths if t <= n)


def build_algebra(pres: QuiverPresentation):
    """Construct the quotient path algebra of a presentation and verify it.

    Raises NotFiniteDimensionalWithinBound if a normal word of length
    degree_bound survives.
    """
    d = pres.degree_bound
    rw = _Rewriter(pres)
    rw.complete(2 * d)
    words_by_len = rw.normal_words(d)
    if any(words_by_len.get(d, [])):
        raise NotFiniteDimensionalWithinBound(
            f"normal word of length {d} survives; raise degree_bound or check the relations"
        )
    basis = []
    idempotents = dict.fromkeys(pres.vertices)  # vertex order, as derived algebras list them
    index_of_word = {}
    for v in sorted(pres.vertices, key=str):
        idempotents[v] = len(basis)
        basis.append(BasisElement(f"e_{v}", v, v, ()))
    for length in sorted(words_by_len):
        if length == 0:
            continue
        for w, _ in sorted(words_by_len[length], key=lambda ws: rw.word_key(ws[0])):
            sig_src, sig_tgt = pres.path_signature(w)
            index_of_word[w] = len(basis)
            basis.append(BasisElement("*".join(w), sig_src, sig_tgt, w))
    f = pres.field
    mult = {}
    gens = [k for k, b in enumerate(basis) if b.word and len(b.word) == 1]
    into = _by_target(basis)
    for k, bk in enumerate(basis):
        for l in into.get(bk.src, ()):
            bl = basis[l]
            concat = bk.word + bl.word
            if not concat:
                # both idempotents at the same vertex
                mult[(k, l)] = ((k, f.one),)
                continue
            idx = index_of_word.get(concat)
            if idx is not None:
                # a normal word holds no tip, so it reduces to itself
                mult[(k, l)] = ((idx, f.one),)
                continue
            red = rw.reduce({concat: f.one}, 2 * d)
            entries = []
            for w, c in red.items():
                if not w:
                    entries.append((idempotents[bk.tgt], c))
                else:
                    idx = index_of_word.get(w)
                    if idx is None:
                        raise AlgebraError(f"reduction produced a non-normal word {w}")
                    entries.append((idx, c))
            if entries:
                mult[(k, l)] = tuple(sorted(entries))
    alg = Algebra(f, pres.vertices, basis, idempotents, mult, generators=tuple(gens), presentation=pres)
    alg.verify()
    _shared(alg)  # registered, so a derived algebra equal to it is it
    return alg

