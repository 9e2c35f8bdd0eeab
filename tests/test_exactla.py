import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import reference_rref_modular, reference_rref_rational

from qstrat import examples as EX
from qstrat import exactla as X
from qstrat.exactla import (
    QQ,
    FieldError,
    Matrix,
    PrimeField,
    field_from_name,
    independent,
    span_rref,
    vector_in_span,
)


def mat(rows):
    return Matrix(QQ, [[Fraction(x) for x in r] for r in rows], len(rows[0]) if rows else 0)


def naive_row_reduce(rows):
    """Textbook fraction-by-fraction Gauss-Jordan, used as an oracle."""
    rows = [[Fraction(x) for x in r] for r in rows]
    n = len(rows)
    m = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(m):
        sel = next((i for i in range(r, n) if rows[i][c] != 0), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(n):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


def random_matrix(rng, nrows, ncols, field=QQ):
    return Matrix(field, [[field.of(rng.randint(-4, 4)) for _ in range(ncols)] for _ in range(nrows)], ncols)


class TestRref:
    def test_zero_matrix(self):
        z = Matrix.zero(QQ, 3, 4)
        r, pivots = z.rref()
        assert r == z and pivots == []

    def test_identity(self):
        eye = Matrix.identity(QQ, 5)
        r, pivots = eye.rref()
        assert r == eye and pivots == list(range(5))

    def test_hand_example(self):
        r, pivots = mat([[2, 4], [1, 2]]).rref()
        assert r == mat([[1, 2], [0, 0]])
        assert pivots == [0]

    @pytest.mark.parametrize("seed", range(12))
    def test_against_naive_oracle(self, seed):
        rng = random.Random(seed)
        m = random_matrix(rng, rng.randint(1, 7), rng.randint(1, 7))
        got, piv = m.rref()
        want_rows, want_piv = naive_row_reduce(m.rows)
        assert got.rows == want_rows
        assert piv == want_piv
        assert piv == sorted(piv)

    @pytest.mark.parametrize("seed", range(8))
    def test_idempotent(self, seed):
        rng = random.Random(100 + seed)
        m = random_matrix(rng, 5, 6)
        r1, p1 = m.rref()
        r2, p2 = r1.rref()
        assert r1 == r2 and p1 == p2

    def test_fractional_entries(self):
        m = Matrix(QQ, [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), Fraction(1, 6)]])
        r, pivots = m.rref()
        assert pivots == [0]
        assert r.rows[0] == [Fraction(1), Fraction(2, 3)]


class TestKernelSolve:
    def test_kernel_identity_empty(self):
        assert Matrix.identity(QQ, 4).kernel().ncols == 0

    def test_kernel_zero_full(self):
        k = Matrix.zero(QQ, 3, 3).kernel()
        assert k.ncols == 3 and k.rank() == 3

    def test_kernel_one_relation(self):
        k = mat([[1, 1]]).kernel()
        assert k.ncols == 1
        col = k.column(0)
        assert col[0] == -col[1] != 0

    @pytest.mark.parametrize("seed", range(10))
    def test_product_vanishes(self, seed):
        rng = random.Random(200 + seed)
        m = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        k = m.kernel()
        assert (m * k).is_zero()

    @pytest.mark.parametrize("seed", range(10))
    def test_rank_nullity(self, seed):
        rng = random.Random(300 + seed)
        m = random_matrix(rng, rng.randint(1, 7), rng.randint(1, 7))
        assert m.rank() + m.kernel().ncols == m.ncols

    def test_solve_identity(self):
        b = mat([[3], [5]])
        assert Matrix.identity(QQ, 2).solve(b) == b

    def test_solve_inconsistent(self):
        m = mat([[1, 1], [1, 1]])
        rhs = mat([[1], [2]])
        assert m.solve(rhs) is None

    @pytest.mark.parametrize("seed", range(6))
    def test_solve_round_trip(self, seed):
        rng = random.Random(400 + seed)
        while True:
            m = random_matrix(rng, 4, 4)
            if m.rank() == 4:
                break
        rhs = random_matrix(rng, 4, 2)
        x = m.solve(rhs)
        assert x is not None and m * x == rhs

    def test_inverse(self):
        m = mat([[2, 1], [1, 1]])
        assert m * m.solve(Matrix.identity(QQ, 2)) == Matrix.identity(QQ, 2)
        assert m.is_invertible()
        assert not mat([[1, 2], [2, 4]]).is_invertible()
        assert not mat([[1, 0, 0], [0, 1, 0]]).is_invertible()


class TestPrimeField:
    def test_rejects_composite(self):
        with pytest.raises(FieldError):
            PrimeField(6)

    def test_primality_matches_trial_division(self):
        for n in range(-2, 3000):
            prime = n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))
            try:
                PrimeField(n)
            except FieldError:
                assert not prime, n
            else:
                assert prime, n

    def test_strong_pseudoprimes_are_rejected(self):
        # the least strong pseudoprimes to the first 4, 9 and 12 prime
        # bases, and to the first 13, the bound itself, which is refused as
        # too large
        for n in (3215031751, 3825123056546413051, 318665857834031151167461, 3317044064679887385961981):
            with pytest.raises(FieldError):
                PrimeField(n)
        assert PrimeField(2**61 - 1).p == 2**61 - 1
        assert PrimeField(2**64 - 59).p == 2**64 - 59

    def test_arithmetic(self):
        f7 = PrimeField(7)
        assert f7.of(Fraction(1, 2)) == 4
        assert f7.mul(3, 5) == 1
        assert f7.inv(3) == 5

    @pytest.mark.parametrize("seed", range(6))
    def test_rank_nullity_mod_p(self, seed):
        rng = random.Random(500 + seed)
        f = PrimeField(5)
        m = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6), field=f)
        assert m.rank() + m.kernel().ncols == m.ncols
        assert (m * m.kernel()).is_zero()

    def test_field_from_name(self):
        assert field_from_name("Q") is QQ
        assert field_from_name("Fp:11").p == 11
        with pytest.raises(FieldError):
            field_from_name("R")


class TestShapeOps:
    def test_mul_transpose_stack(self):
        a = mat([[1, 2], [3, 4]])
        b = mat([[0, 1], [1, 0]])
        assert (a * b) == mat([[2, 1], [4, 3]])
        assert a.transpose() == mat([[1, 3], [2, 4]])
        assert a.hstack(b).shape == (2, 4)

    def test_apply(self):
        a = mat([[1, 2], [3, 4]])
        assert a.apply([Fraction(1), Fraction(1)]) == [Fraction(3), Fraction(7)]

    def test_empty_shapes(self):
        e = Matrix.zero(QQ, 0, 3)
        assert e.rank() == 0
        assert e.kernel().ncols == 3
        f = Matrix.from_columns(QQ, [], nrows=2)
        assert f.shape == (2, 0)


def _canonical(x):
    """A rational in the form the Q kernel keeps: int while integral."""
    return type(x) is int or (isinstance(x, Fraction) and x.denominator != 1)


class TestIntegerFirstRationals:
    """Q elements are ints while integral and Fractions otherwise."""

    @pytest.mark.parametrize("x", [3, Fraction(6, 3), "6/3"])
    def test_of_integral_is_int(self, x):
        assert type(QQ.of(x)) is int
        assert QQ.of(x) == Fraction(x)

    @pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["Q", "Fp:7"])
    @pytest.mark.parametrize("x", [True, False])
    def test_a_bool_is_no_coefficient(self, field, x):
        # a JSON true or false is refused, not read as 1 or 0
        with pytest.raises(FieldError, match=f"cannot coerce {x!r}"):
            field.of(x)

    def test_of_non_integral_is_fraction(self):
        assert QQ.of("1/3") == Fraction(1, 3)
        assert type(QQ.of("1/3")) is Fraction

    def test_zero_and_one_are_ints(self):
        assert type(QQ.zero) is int and QQ.zero == 0
        assert type(QQ.one) is int and QQ.one == 1

    def test_div_and_inv(self):
        assert QQ.div(4, 2) == 2 and type(QQ.div(4, 2)) is int
        assert QQ.div(1, 3) == Fraction(1, 3)
        assert QQ.div(Fraction(1, 2), Fraction(1, 4)) == 2
        assert type(QQ.div(Fraction(1, 2), Fraction(1, 4))) is int
        for a, b in [(4, 2), (1, 3), (-7, 2), (Fraction(2, 3), 5), (3, Fraction(1, 3))]:
            assert _canonical(QQ.div(a, b))
            assert _canonical(QQ.inv(b))
        assert QQ.inv(Fraction(1, 3)) == 3 and type(QQ.inv(Fraction(1, 3))) is int

    def test_inv_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            QQ.inv(0)

    def test_mixed_matrices_compare_and_hash_equal(self):
        a = Matrix(QQ, [[1, Fraction(2)], [Fraction(1, 2), 0]])
        b = Matrix(QQ, [[Fraction(1), 2], [Fraction(1, 2), Fraction(0)]])
        assert a == b and hash(a) == hash(b)
        assert repr(a) == repr(b)

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 5).flatmap(
            lambda ncols: st.lists(
                st.lists(
                    st.one_of(
                        st.integers(-4, 4),
                        st.fractions(min_value=-3, max_value=3, max_denominator=6),
                    ),
                    min_size=ncols,
                    max_size=ncols,
                ),
                min_size=1,
                max_size=5,
            )
        )
    )
    def test_rref_matches_sympy(self, rows):
        got, pivots = Matrix(QQ, rows).rref()
        want, want_pivots = sympy.Matrix(
            [[sympy.Rational(x.numerator, x.denominator) for x in r] for r in rows]
        ).rref()
        assert pivots == list(want_pivots)
        assert got.rows == [
            [Fraction(int(want[i, j].p), int(want[i, j].q)) for j in range(want.cols)]
            for i in range(want.rows)
        ]
        assert all(_canonical(x) for r in got.rows for x in r)

    @pytest.mark.parametrize(
        "build",
        [lambda: EX.get_example("B"), lambda: EX.get_example("qsl2:4"), lambda: EX.get_example("semiinf:3")],
        ids=["B", "qsl2:4", "semiinf:3"],
    )
    def test_structure_constants_round_trip(self, build):
        alg, _ = build()
        consts = [c for prod in alg.mult.values() for _, c in prod]
        assert consts
        for c in consts:
            assert isinstance(c, (int, Fraction)) and not isinstance(c, float)
            back = QQ.of(QQ.to_str(c))
            assert back == c and hash(back) == hash(c)
            assert QQ.to_str(back) == QQ.to_str(c)


def greedy_independent(field, vectors, length, base=()):
    """Reference: the greedy loop that independent replaced, one elimination
    per candidate vector."""
    cur = [list(v) for v in base]
    out = []
    for i, v in enumerate(vectors):
        if not vector_in_span(span_rref(field, cur, length), v):
            cur.append(list(v))
            out.append(i)
    return out


class TestIndependent:
    def test_hand_example(self):
        e1, e2, zero = [1, 0, 0], [0, 1, 0], [0, 0, 0]
        vecs = [zero, e1, [2, 0, 0], e2, [1, 1, 0], zero]
        assert independent(QQ, vecs, 3) == [1, 3]
        assert independent(QQ, vecs, 3, base=[[3, 3, 0]]) == [1]
        assert independent(QQ, [], 3, base=[e1]) == []
        assert independent(QQ, [zero], 3) == []

    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.sampled_from(["Q", "Fp:1000003"]), st.booleans())
    def test_matches_the_greedy_loop(self, data, field_name, with_base):
        f = field_from_name(field_name)
        length = data.draw(st.integers(1, 5))
        # combinations of at most three generators: dependent columns, and
        # zero ones whenever every coefficient is zero
        gens = data.draw(st.lists(st.lists(st.integers(-3, 3), min_size=length, max_size=length), max_size=3))
        coeff = st.one_of(st.just(0), st.integers(-2, 2), st.fractions(-2, 2, max_denominator=3))

        def vectors(n_max):
            out = []
            for _ in range(data.draw(st.integers(0, n_max))):
                cs = data.draw(st.lists(coeff, min_size=len(gens), max_size=len(gens)))
                out.append([f.of(sum((c * g[j] for c, g in zip(cs, gens)), Fraction(0))) for j in range(length)])
            return out

        base = vectors(3) if with_base else []
        vecs = vectors(6)
        got = independent(f, vecs, length, base=base) if with_base else independent(f, vecs, length)
        assert got == greedy_independent(f, vecs, length, base)


P_BIG = 1000003


@st.composite
def _kernel_inputs(draw):
    """A field and rows for it: zero rows and dependent rows from a few
    generators; over Q integral entries drawn as int or as Fraction(k, 1),
    over F_p residues drawn negative or at or above p.  Some shapes are
    empty and some lie above the memo's cell cap.  The small primes make
    pivots vanish mod p, and the dense shape, of 30 to 40 rows and rank
    below both sides, makes entries grow during elimination."""
    field = draw(st.sampled_from([QQ, PrimeField(P_BIG), PrimeField(2), PrimeField(3), PrimeField(7)]))
    shape = draw(st.sampled_from(["small", "empty", "big", "dense"]))
    rng = draw(st.randoms(use_true_random=False))
    entries = [0, 0, 0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(3, 4)]
    coeffs = [0, 0, 1, -1, 2, Fraction(1, 2)]
    ngens = draw(st.integers(1, 4))
    if shape == "empty":
        nrows, ncols = draw(st.sampled_from([(0, 0), (0, 3), (3, 0)]))
    elif shape == "big":
        nrows, ncols = draw(st.integers(17, 19)), draw(st.integers(16, 18))
        assert nrows * ncols > X._MEMO_CELLS
    elif shape == "dense":
        nrows, ncols = draw(st.integers(30, 40)), draw(st.integers(30, 40))
        ngens = draw(st.integers(10, 25))
        entries = [1, -1, 2, -3, 5, Fraction(1, 2), Fraction(-2, 3), Fraction(3, 4), Fraction(7, 5)]
        coeffs = [1, -1, 2, 3, Fraction(1, 2), Fraction(-5, 7)]
    else:
        nrows, ncols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    gens = [[rng.choice(entries) for _ in range(ncols)] for _ in range(ngens)]
    rows = []
    for _ in range(nrows):
        cs = [rng.choice(coeffs) for _ in gens]
        row = [sum((c * g[j] for c, g in zip(cs, gens)), Fraction(0)) for j in range(ncols)]
        if field is QQ:
            row = [rng.choice([x, int(x)]) if x.denominator == 1 else x for x in row]
        else:
            # a denominator that vanishes mod p is dropped, not inverted
            row = [x if x.denominator % field.p else x.numerator for x in row]
            row = [field.of(x) + field.p * rng.randint(-2, 2) for x in row]
        rows.append(row)
    return field, rows, ncols


class TestKernelMatchesReference:
    """The sparse-aware kernel and its memo give what the dense eliminations
    they replaced give: equal rows, entry types and pivots."""

    @settings(max_examples=150, deadline=None)
    @given(_kernel_inputs(), st.booleans())
    def test_rows_types_and_pivots(self, inputs, repeat):
        field, rows, ncols = inputs
        reference = reference_rref_rational if field is QQ else reference_rref_modular
        want, want_pivots = reference(Matrix(field, rows, ncols))
        if repeat:  # the second elimination of equal content may be a memo hit
            Matrix(field, rows, ncols).rref()
        got, pivots = Matrix(field, rows, ncols).rref()
        assert got.shape == want.shape == (len(rows), ncols)
        assert got.rows == want.rows
        assert [[type(x) for x in r] for r in got.rows] == [[type(x) for x in r] for r in want.rows]
        assert pivots == want_pivots


@pytest.fixture
def empty_memo(monkeypatch):
    monkeypatch.setattr(X, "_RREF_MEMO", {})
    return X._RREF_MEMO


class TestRrefMemo:
    def test_repeat_returns_equal_rows_and_pivots(self, empty_memo):
        rows = [[1, 2, 3], [2, 4, Fraction(1, 2)], [0, 0, 0]]
        r1, p1 = Matrix(QQ, rows).rref()
        assert len(empty_memo) == 1
        r2, p2 = Matrix(QQ, rows).rref()
        assert r1.rows == r2.rows and p1 == p2 == [0, 2]

    def test_integral_fraction_key_gives_int_rows(self, empty_memo):
        # [[2, 4]] and [[Fraction(2), Fraction(4)]] share a key; either
        # order gives the canonical rows, and other fields do not share it
        Matrix(QQ, [[Fraction(2), Fraction(4)], [1, Fraction(1, 3)]]).rref()
        got, _ = Matrix(QQ, [[2, 4], [1, Fraction(1, 3)]]).rref()
        assert got.rows == [[1, 0], [0, 1]]
        assert all(type(x) is int for r in got.rows for x in r)
        f5 = PrimeField(5)
        Matrix(QQ, [[2, 1]]).rref()
        assert Matrix(f5, [[2, 1]]).rref()[0].rows == [[1, 3]]

    def test_table_never_grows_past_its_cap(self, empty_memo, monkeypatch):
        monkeypatch.setattr(X, "_MEMO_ENTRIES", 5)
        for k in range(12):
            Matrix(QQ, [[k, 1]]).rref()
            assert len(empty_memo) <= 5
        # oldest first: the last five stay
        assert [key[2] for key in empty_memo] == [((k, 1),) for k in range(7, 12)]

    def test_matrix_over_the_cell_cap_is_never_stored(self, empty_memo):
        side = 16
        assert side * side == X._MEMO_CELLS
        Matrix(QQ, Matrix.identity(QQ, side).rows + [[0] * side], side).rref()
        Matrix.zero(PrimeField(7), side + 1, side).rref()
        assert empty_memo == {}
        Matrix.identity(QQ, side).rref()
        assert len(empty_memo) == 1

    def test_public_constructor_still_checks_rows(self):
        with pytest.raises(ValueError, match="ragged rows"):
            Matrix(QQ, [[1], [1, 2]])
        rows = [[1, 2], [3, 4]]
        m = Matrix(QQ, rows)
        rows[0][0] = 9
        assert m.rows == [[1, 2], [3, 4]]
