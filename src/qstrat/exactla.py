"""Exact dense linear algebra over the rationals or a prime field.

Everything downstream (module homomorphisms, radicals, flags, tilting
theory) reduces to row reduction of exact matrices, so this module is the
substrate of the whole package.  Matrices store dense lists of field
elements; a rational is a plain int while it is integral and a
`fractions.Fraction` otherwise, prime-field elements are ints in [0, p).
All values are treated as immutable after construction.

Row reduction is one Gauss-Jordan kernel for both fields, which enter
only in how a row is read in, updated and finally scaled (see
Matrix.rref).  It is sparse-aware: a row update touches only the nonzero
positions of the pivot row, and products skip zero entries.  The rref of
a small matrix is memoized by content, since the same few matrices are
eliminated over and over.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import reduce
from itertools import count
from math import gcd, lcm


class FieldError(ValueError):
    pass


class NotSplit(FieldError):
    """The ground field does not split a polynomial, an algebra, or an
    endomorphism algebra met along the way."""


def _demote(q):
    """An integral Fraction as an int; any other Fraction unchanged."""
    return q.numerator if q.denominator == 1 else q


def _primitive(row):
    """The primitive integer row on the line of a row of rationals: its
    denominators cleared and its content divided out.  An integer row may
    come back as the same list."""
    if Fraction in map(type, row):
        den = lcm(*[a.denominator for a in row])
        row = [a.numerator * (den // a.denominator) for a in row]
    g = gcd(*row)
    return [a // g for a in row] if g > 1 else row


class Rationals:
    """The field of rational numbers.  Elements are ints while integral and
    Fractions otherwise; a mixed value compares, hashes and prints like its
    canonical form, so only a division or a non-integral input builds a
    Fraction."""

    name = "Q"
    characteristic = 0
    zero = 0
    one = 1

    def of(self, x):
        """x as a rational: an int, a Fraction, or a string in the form
        to_str writes, -?[0-9]+(/[0-9]+)?.  A bool is no int here, so a
        JSON true or false is refused, not read as 1 or 0."""
        if type(x) is int:
            return x
        if isinstance(x, str) and not re.fullmatch("-?[0-9]+(/[0-9]+)?", x):
            raise FieldError(f"{x!r} is not a rational number")
        if isinstance(x, (Fraction, str)):
            try:
                return _demote(Fraction(x))
            except ZeroDivisionError:
                raise FieldError(f"{x!r} is not a rational number") from None
        raise FieldError(f"cannot coerce {x!r} into Q")

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        return self.div(1, a)

    def div(self, a, b):
        return _demote(Fraction(a, b))

    def is_zero(self, a):
        return a == 0

    def to_str(self, a):
        return str(a)

    def __repr__(self):
        return "Q"

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Q")


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def _is_prime(n):
    """Whether n < _MR_LIMIT is prime: Miller-Rabin to each of the first
    thirteen prime bases, which decides it below that bound, the least
    strong pseudoprime to them all (Sorenson and Webster, 2015)."""
    if n < 2 or any(n % a == 0 for a in _MR_BASES):
        return n in _MR_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = 2^s d with d odd
    d = (n - 1) >> s
    return all(pow(a, d, n) == 1 or any(pow(a, d << r, n) == n - 1 for r in range(s)) for a in _MR_BASES)


class PrimeField:
    """The prime field F_p; elements are ints reduced mod p."""

    characteristic = None

    def __init__(self, p):
        if p >= _MR_LIMIT:
            raise FieldError(f"a {len(str(p))}-digit modulus is too large: primality is decided below {_MR_LIMIT}")
        if not _is_prime(p):
            raise FieldError(f"{p} is not prime")
        self.p = p
        self.characteristic = p
        self.name = f"Fp:{p}"

    def of(self, x):
        if type(x) is int:  # not a bool, as in Rationals.of
            return x % self.p
        if isinstance(x, Fraction):
            den = x.denominator % self.p
            if den == 0:
                raise FieldError(f"denominator of {x} vanishes mod {self.p}")
            return (x.numerator * pow(den, -1, self.p)) % self.p
        if isinstance(x, str):
            return self.of(QQ.of(x))
        raise FieldError(f"cannot coerce {x!r} into F_{self.p}")

    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return 1

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(a, -1, self.p)

    def div(self, a, b):
        return (a * self.inv(b)) % self.p

    def is_zero(self, a):
        return a % self.p == 0

    def to_str(self, a):
        return str(a % self.p)

    def __repr__(self):
        return f"F_{self.p}"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))


QQ = Rationals()


def integer(x):
    """x as an int when it is a JSON integer or a string -?[0-9]+, else
    None: the one reading of every integer an input file or option holds."""
    ok = re.fullmatch("-?[0-9]+", x) if isinstance(x, str) else type(x) is int
    return int(x) if ok else None


def field_from_name(name):
    """Parse a field tag: "Q" or "Fp:<p>"."""
    if name == "Q":
        return QQ
    if isinstance(name, str) and name.startswith("Fp:"):
        p = integer(name[3:])
        if p is None:
            raise FieldError(f"the modulus of {name!r} is not an integer")
        return PrimeField(p)
    raise FieldError(f"unknown field {name!r}")


# Polynomials are lists of field elements, leading coefficient first and
# nonzero ([] is zero); each helper computes in the field F it is given.


def _trim(a, F):
    return a[next((i for i, c in enumerate(a) if not F.is_zero(c)), len(a)) :]


def _divmod(a, b, F):
    a, n = list(a), max(len(a) - len(b) + 1, 0)
    for i in range(n):
        a[i] = F.div(a[i], b[0])
        a[i + 1 : i + len(b)] = [F.sub(x, F.mul(a[i], y)) for x, y in zip(a[i + 1 : i + len(b)], b[1:])]
    return a[:n], _trim(a[n:], F)


def _mulmod(a, b, f, F):
    out = [F.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        out[i : i + len(b)] = [F.add(z, F.mul(x, y)) for z, y in zip(out[i : i + len(b)], b)]
    return _divmod(out, f, F)[1]


def _powmod(a, e, f, F):
    """a^e mod f, by repeated squaring."""
    out = [F.one]
    for bit in bin(e)[2:]:
        out = _mulmod(out, out, f, F)
        if bit == "1":
            out = _mulmod(out, a, f, F)
    return out


def _gcd(a, b, F):
    """The monic gcd of a and b, not both zero."""
    while b:
        a, b = b, _divmod(a, b, F)[1]
    return [F.div(c, a[0]) for c in a]


def _eval(a, x, F):
    return reduce(lambda v, c: F.add(F.mul(v, x), c), a, F.zero)


def _deriv(a, F):
    return _trim([F.mul(F.of(len(a) - 1 - i), c) for i, c in enumerate(a[:-1])], F)


def _fp_roots(f, F):
    """The distinct roots of f in F = F_p.  Over F_2, 0 and 1 are tested.
    For p odd, at a = 0, 1, 2, ... the root -a of g is tested, and gcd(g,
    (x + a)^((p-1)/2) -+ 1) part its other roots r by whether r + a is a
    square.  As x^p - x = x (x^((p-1)/2) - 1) (x^((p-1)/2) + 1), step 0 on
    f takes gcd(f, x^p - x) apart."""
    if F.p == 2:
        return [r for r in (F.zero, F.one) if F.is_zero(_eval(f, r, F))]
    todo, out = [(_gcd(f, [], F), 0)], []
    while todo:
        g, a = todo.pop()
        if len(g) <= 2:
            out += [F.neg(c) for c in g[1:]]
            continue
        out += [F.neg(a)] if F.is_zero(_eval(g, F.neg(a), F)) else []
        u = _powmod([F.one, a], (F.p - 1) // 2, g, F) or [F.zero]
        todo += [(_gcd(g, _trim(u[:-1] + [F.sub(u[-1], s)], F), F), a + 1) for s in (F.one, F.neg(F.one))]
    return out


def _rational_roots(f):
    """The distinct roots of f in Q: those of its squarefree part s, a
    primitive integer polynomial, modulo the first odd prime p that divides
    no lc(s) and keeps s squarefree, lifted by Newton's iteration modulo
    p^(2^k) > 2B^2, where B = max |s_i| bounds the numerator and denominator
    of a root, and kept when their rational reconstruction (Wang) is one."""
    s = _divmod(f, _gcd(f, _deriv(f, QQ), QQ), QQ)[0]
    content = Fraction(gcd(*(c.numerator for c in s)), lcm(*(c.denominator for c in s)))
    s = [int(c / content) for c in s]
    ds, B = _deriv(s, QQ), max(map(abs, s))
    for F in map(PrimeField, filter(_is_prime, count(3, 2))):
        if s[0] % F.p and len(_gcd([F.of(c) for c in s], _trim([F.of(c) for c in ds], F), F)) == 1:
            break
    out = []
    for r in _fp_roots([F.of(c) for c in s], F):
        m = F.p
        while m <= 2 * B * B:
            m *= m
            r = (r - _eval(s, r, QQ) * pow(_eval(ds, r, QQ), -1, m)) % m
        r0, r1, t0, t1 = m, r, 0, 1
        while r1 > B:
            r0, r1, t0, t1 = r1, r0 % r1, t1, t0 - r0 // r1 * t1
        c = QQ.div(r1, t1)
        out += [c] if QQ.is_zero(_eval(s, c, QQ)) else []
    return out


def roots(coeffs, field):
    """The distinct roots in field of the polynomial with these coefficients,
    leading coefficient first and not all zero.  Raises NotSplit exactly
    when the roots, divided out with multiplicity, leave a factor of
    positive degree."""
    f = _trim([field.of(c) for c in coeffs], field)
    found = _fp_roots(f, field) if field.characteristic else _rational_roots(f)
    for r in found:
        while field.is_zero(_eval(f, r, field)):
            f = _divmod(f, [field.one, field.neg(r)], field)[0]
    if len(f) > 1:
        raise NotSplit(f"a factor of degree {len(f) - 1} has no root in {field.name}")
    return found


# The rref memo: (field, ncols, rows as tuples) -> (R, pivots), for
# matrices of at most _MEMO_CELLS cells.  The CLI eliminates the same few
# small matrices over and over (`tower semiinf --window 2,3,4,5` ran 2.3k
# eliminations of 140 distinct matrices without it).  The rref is a
# function of the field and the entries alone, and over Q the kernel
# gives integral entries as ints, so a key that is equal only up to int/Fraction
# gets the rows a fresh elimination would give.  The oldest entry goes
# first once _MEMO_ENTRIES are stored.
_MEMO_CELLS = 256
_MEMO_ENTRIES = 512
_RREF_MEMO = {}


class Matrix:
    """Dense matrix over an exact field.

    Rows are stored as lists.  Instances are never mutated after they leave
    this module, and they may share row lists with each other; row
    reduction results are cached on the instance.
    """

    __slots__ = ("field", "nrows", "ncols", "rows", "_rref")

    def __init__(self, field, rows, ncols=None):
        self.field = field
        self.rows = [list(r) for r in rows]
        self.nrows = len(self.rows)
        if ncols is None:
            if not self.rows:
                raise ValueError("ncols required for a matrix with no rows")
            ncols = len(self.rows[0])
        self.ncols = ncols
        for r in self.rows:
            if len(r) != ncols:
                raise ValueError("ragged rows")
        self._rref = None

    @classmethod
    def _of(cls, field, rows, ncols):
        """A matrix on rows this module has just built: no copy, no check."""
        self = object.__new__(cls)
        self.field = field
        self.rows = rows
        self.nrows = len(rows)
        self.ncols = ncols
        self._rref = None
        return self

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(field, nrows, ncols):
        z = field.zero
        return Matrix._of(field, [[z] * ncols for _ in range(nrows)], ncols)

    @staticmethod
    def identity(field, n):
        z, o = field.zero, field.one
        return Matrix._of(field, [[o if i == j else z for j in range(n)] for i in range(n)], n)

    @staticmethod
    def from_columns(field, cols, nrows=None):
        if not cols:
            if nrows is None:
                raise ValueError("nrows required for a matrix with no columns")
            return Matrix._of(field, [[] for _ in range(nrows)], 0)
        rows = [list(r) for r in zip(*cols)]
        if len(rows) != len(cols[0]):
            raise ValueError("ragged columns")
        return Matrix._of(field, rows, len(cols))

    def column(self, j):
        return [r[j] for r in self.rows]

    def columns(self):
        if not self.rows:
            return [[] for _ in range(self.ncols)]
        return [list(c) for c in zip(*self.rows)]

    # -- basic algebra --------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.nrows, self.ncols, tuple(tuple(r) for r in self.rows)))

    def __add__(self, other):
        f = self.field
        return Matrix._of(
            f,
            [[f.add(a, b) for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)],
            self.ncols,
        )

    def __sub__(self, other):
        f = self.field
        return Matrix._of(
            f,
            [[f.sub(a, b) for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)],
            self.ncols,
        )

    def scale(self, c):
        f = self.field
        return Matrix._of(f, [[f.mul(c, a) for a in r] for r in self.rows], self.ncols)

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.shape} * {other.shape}")
        # native + and *, skipping zeros; ints do not overflow, so over F_p
        # each sum is reduced once at the end
        ocols = other.ncols
        sparse = [[(j, b) for j, b in enumerate(orow) if b] for orow in other.rows]
        out = []
        for row in self.rows:
            acc = [0] * ocols
            for a, nz in zip(row, sparse):
                if a:
                    for j, b in nz:
                        acc[j] += a * b
            out.append(acc)
        f = self.field
        if not isinstance(f, Rationals):
            p = f.p
            out = [[v % p for v in acc] for acc in out]
        return Matrix._of(f, out, ocols)

    def apply(self, vec):
        """Matrix times column vector (a plain list)."""
        nz = [(j, v) for j, v in enumerate(vec) if v]
        out = []
        for row in self.rows:
            s = 0
            for j, v in nz:
                a = row[j]
                if a:
                    s += a * v
            out.append(s)
        f = self.field
        if not isinstance(f, Rationals):
            p = f.p
            out = [s % p for s in out]
        return out

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def transpose(self):
        return Matrix._of(self.field, self.columns(), self.nrows)

    def hstack(self, other):
        if self.nrows != other.nrows:
            raise ValueError("row count mismatch in hstack")
        return Matrix._of(self.field, [r1 + r2 for r1, r2 in zip(self.rows, other.rows)], self.ncols + other.ncols)

    def is_zero(self):
        f = self.field
        if isinstance(f, Rationals):
            return not any(map(any, self.rows))
        p = f.p
        return not any(a % p for r in self.rows for a in r)

    def __repr__(self):
        body = "; ".join(" ".join(self.field.to_str(a) for a in r) for r in self.rows)
        return f"Matrix({self.nrows}x{self.ncols}: {body})"

    # -- elimination ----------------------------------------------------

    def rref(self):
        """Reduced row-echelon form, by _gauss_jordan.

        Returns (R, pivots) where pivots is the strictly increasing list of
        pivot columns.  Small matrices are looked up in the memo by content
        first, so R and the pivot list may be shared with other matrices:
        never mutate them.
        """
        if self._rref is not None:
            return self._rref
        key = None
        if self.nrows * self.ncols <= _MEMO_CELLS:
            key = (self.field, self.ncols, tuple(map(tuple, self.rows)))
            res = _RREF_MEMO.get(key)
            if res is not None:
                self._rref = res
                return res
        res = _gauss_jordan(self.field, self.rows, self.ncols)
        if key is not None:
            if len(_RREF_MEMO) >= _MEMO_ENTRIES:
                del _RREF_MEMO[next(iter(_RREF_MEMO))]
            _RREF_MEMO[key] = res
        self._rref = res
        return res

    def rank(self):
        return len(self.rref()[1])

    def kernel(self):
        """Basis of the right null space, as the columns of a matrix."""
        R, pivots = self.rref()
        f = self.field
        free = [j for j in range(self.ncols) if j not in pivots]
        cols = []
        for j in free:
            v = [f.zero] * self.ncols
            v[j] = f.one
            for k, pc in enumerate(pivots):
                v[pc] = f.neg(R.rows[k][j])
            cols.append(v)
        return Matrix.from_columns(f, cols, nrows=self.ncols)

    def solve(self, rhs):
        """Solve self * x = rhs column by column; None if inconsistent."""
        if rhs.nrows != self.nrows:
            raise ValueError("row count mismatch in solve")
        aug = self.hstack(rhs)
        R, pivots = aug.rref()
        f = self.field
        n = self.ncols
        if any(pc >= n for pc in pivots):
            return None
        cols = []
        for j in range(rhs.ncols):
            x = [f.zero] * n
            for k, pc in enumerate(pivots):
                x[pc] = R.rows[k][n + j]
            cols.append(x)
        return Matrix.from_columns(f, cols, nrows=n)

    def column_space_basis(self):
        """Columns of self giving a basis of its column space."""
        _, pivots = self.rref()
        return Matrix.from_columns(self.field, [self.column(j) for j in pivots], nrows=self.nrows)

    def is_invertible(self):
        return self.nrows == self.ncols and self.rank() == self.nrows


def _gauss_jordan(field, rows, m):
    """(R, pivots) for the rref of rows of length m over field, the one
    elimination kernel.  One Gauss-Jordan pass per pivot column clears that
    column in every other row, touching only the pivot row's nonzero
    positions.  Over F_p the rows are residues and each pivot row is scaled
    to a unit pivot.  Over Q the rows are primitive integer rows, updated by
    integer cross-multiplication and divided by their content again, so no
    Fraction arises until each pivot row is divided by its pivot at the
    end, into an int where integral and a Fraction otherwise."""
    n = len(rows)
    p = field.characteristic
    rows = [[a % p for a in r] for r in rows] if p else [_primitive(list(r)) for r in rows]
    pivots = []
    for col in range(m):
        k = len(pivots)
        for sel in range(k, n):
            if rows[sel][col]:
                break
        else:
            continue
        rows[k], rows[sel] = rows[sel], rows[k]
        if p:
            inv = pow(rows[k][col], -1, p)
            rows[k] = [(v * inv) % p for v in rows[k]]
        prow = rows[k]
        c = prow[col]
        nz = [(j, prow[j]) for j in range(col, m) if prow[j]]
        for i in range(n):
            ri = rows[i]
            a = ri[col]
            if not a or i == k:
                continue
            if p:
                for j, b in nz:
                    ri[j] = (ri[j] - a * b) % p
                continue
            g = gcd(c, a)
            cp, ca = c // g, a // g
            if cp != 1:
                ri = [cp * v for v in ri]
            for j, b in nz:
                ri[j] -= ca * b
            g = gcd(*ri)
            rows[i] = [v // g for v in ri] if g > 1 else ri
        pivots.append(col)
    if not p:
        for k, col in enumerate(pivots):
            c = rows[k][col]
            rows[k] = [Fraction(v, c) if v % c else v // c for v in rows[k]]
    R = Matrix._of(field, rows, m)
    R._rref = (R, pivots)
    return R._rref


def span_rref(field, vectors, length):
    """Canonical (rref) basis, as rows, of the span of the given vectors:
    the nonzero rows of their rref.  The result is its own rref and carries
    its pivots."""
    rows, pivots = [], []
    if vectors:
        R, pivots = Matrix(field, vectors, length).rref()
        rows = R.rows[: len(pivots)]
    out = Matrix._of(field, rows, length)
    out._rref = (out, pivots)
    return out


def reduced_span(field, rows, length):
    """The span_rref of rows already reduced against each other, given as
    (pivot, {column: entry}) pairs: each has a leading one at its pivot and
    zeros at the other pivots.  Sorted by pivot they are the rref, so no
    elimination runs."""
    rows = sorted(rows, key=lambda r: r[0])
    dense = [[entries.get(j, field.zero) for j in range(length)] for _, entries in rows]
    out = Matrix._of(field, dense, length)
    out._rref = (out, [p for p, _ in rows])
    return out


def independent(field, vectors, length, base=()):
    """Indices of the vectors independent of base and of the vectors before
    them: the greedy choice of a basis, read off one rref.  A column of
    [base | vectors] is a pivot exactly when it lies outside the span of
    the columns before it."""
    cols = [*base, *vectors]
    if not cols:
        return []
    _, pivots = Matrix.from_columns(field, cols, nrows=length).rref()
    return [j - len(base) for j in pivots if j >= len(base)]


def span_pivots(span_rows):
    """Pivot columns of a row-space rref produced by span_rref, which
    records them: no elimination runs here."""
    return span_rows._rref[1]


def vector_in_span(span_rows, vec):
    """Membership test against a row-space rref produced by span_rref."""
    f = span_rows.field
    v = list(vec)
    for row, lead in zip(span_rows.rows, span_pivots(span_rows)):
        c = v[lead]
        if not f.is_zero(c):
            for j in range(len(v)):
                v[j] = f.sub(v[j], f.mul(c, row[j]))
    return all(f.is_zero(a) for a in v)
