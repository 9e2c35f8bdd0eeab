import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from qstrat import examples as EX
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
        assert m * m.inverse() == Matrix.identity(QQ, 2)
        assert m.is_invertible()
        assert not mat([[1, 2], [2, 4]]).is_invertible()
        assert not mat([[1, 0, 0], [0, 1, 0]]).is_invertible()


class TestPrimeField:
    def test_rejects_composite(self):
        with pytest.raises(FieldError):
            PrimeField(6)

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
        assert a.vstack(b).shape == (4, 2)

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

    @pytest.mark.parametrize("x", [3, True, Fraction(6, 3), "6/3"])
    def test_of_integral_is_int(self, x):
        assert type(QQ.of(x)) is int
        assert QQ.of(x) == Fraction(x)

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
        [EX.example_B, lambda: EX.quantum_sl2(4), lambda: EX.semi_infinite(3)],
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
