import json
import os
import subprocess
import sys

import pytest

from oracles import (
    algebra_one,
    basis_element,
    check_valid,
    element_by_name,
    lower_set,
    path_count_dimension_oracle,
    reference_commuting_ladder,
    reference_monomial_ladder,
)

from qstrat.algebra import (
    Algebra,
    AlgebraError,
    Arrow,
    NotFiniteDimensionalWithinBound,
    QuiverPresentation,
    build_algebra,
)
from qstrat.examples import get_example
from qstrat.exactla import QQ, field_from_name

import qstrat

SRC = os.path.dirname(os.path.dirname(qstrat.__file__))
RADICAL_EXAMPLES = [
    "A", "B", "kxk", "point", "semiinf:3", "semiinf:4", "qsl2:3", "qsl2:5", "gl11:-1:2", "gl11:-2:3", "dzig:-1:2",
]


class TestBuild:
    def test_single_vertex_no_arrows(self):
        alg, _ = get_example("point")
        assert alg.dim == 1
        assert alg.basis[0].name == "e_1"

    def test_A_dimension_and_grading(self, algA):
        A, _ = algA
        assert A.dim == 14
        assert A.graded_dims() == {
            ("1", "1"): 6,
            ("2", "2"): 2,
            ("1", "2"): 2,
            ("2", "1"): 4,
        }

    def test_A_basis_words(self, algA):
        A, _ = algA
        names = {b.name for b in A.basis}
        for w in ("e_1", "z", "v*u", "v*u*z", "z*v*u", "z*v*u*z",
                  "e_2", "u*z*v", "v", "z*v", "u", "u*z", "u*z*v*u", "u*z*v*u*z"):
            assert w in names

    def test_B_dimension(self, algB):
        B, _ = algB
        assert B.dim == 6
        assert B.graded_dims() == {("1", "1"): 2, ("2", "2"): 2, ("2", "1"): 2}

    def test_basis_records_keep_their_repr_and_hash(self, algB):
        # the benchmark's basis fingerprint reads the repr, and the content
        # hash of shared algebras reads the hash
        B, _ = algB
        assert [repr(b) for b in B.basis] == [
            "BasisElement(name='e_1', src='1', tgt='1', word=())",
            "BasisElement(name='e_2', src='2', tgt='2', word=())",
            "BasisElement(name='s', src='1', tgt='1', word=('s',))",
            "BasisElement(name='t', src='2', tgt='2', word=('t',))",
            "BasisElement(name='y', src='1', tgt='2', word=('y',))",
            "BasisElement(name='y*s', src='1', tgt='2', word=('y', 's'))",
        ]
        assert [hash(b) for b in B.basis] == [hash((b.name, b.src, b.tgt, b.word)) for b in B.basis]
        arrow = B.presentation.arrows[2]
        assert repr(arrow) == "Arrow(name='y', src='1', tgt='2')" and hash(arrow) == hash(("y", "1", "2"))
        with pytest.raises(AttributeError):
            B.basis[0].name = "f"

    def test_dimension_oracle_agreement(self, algA, algB):
        A, _ = algA
        B, _ = algB
        assert path_count_dimension_oracle(A.presentation, 6) == A.dim
        assert path_count_dimension_oracle(B.presentation, 3) == B.dim

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_monomial_ladder_windows(self, n):
        alg, _ = get_example(f"semiinf:{n}")
        assert alg.dim == 4 * n + 1
        assert path_count_dimension_oracle(reference_monomial_ladder(QQ, 0, n), 2 * n) == alg.dim

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_commuting_ladder_windows(self, n):
        alg, _ = get_example(f"qsl2:{n}")
        assert alg.dim == 4 * n + 1

    def test_commuting_ladder_untruncated_oracle(self):
        pres = reference_commuting_ladder(QQ, 0, 2)
        alg = build_algebra(pres)
        assert path_count_dimension_oracle(pres, 5) == alg.dim

    def test_rebuild_stability(self):
        a1 = build_algebra(reference_commuting_ladder(QQ, 0, 2, bound=6))
        a2 = build_algebra(reference_commuting_ladder(QQ, 0, 2, bound=9))
        assert a1.dim == a2.dim
        assert [b.name for b in a1.basis] == [b.name for b in a2.basis]
        assert a1.mult == a2.mult

    def test_arrow_order_independence(self):
        # the monomial order depends on the arrow enumeration, so two
        # listings may pick different normal forms; the dimensions and the
        # structural verdicts must agree
        from qstrat import strat as S
        from qstrat.strat import Poset, StratSpec

        pres1 = reference_commuting_ladder(QQ, 0, 2)
        pres2 = QuiverPresentation(
            field=QQ,
            vertices=pres1.vertices,
            arrows=list(reversed(pres1.arrows)),
            relations=pres1.relations,
            degree_bound=pres1.degree_bound,
        )
        a1 = build_algebra(pres1)
        a2 = build_algebra(pres2)
        assert a1.dim == a2.dim
        assert a1.graded_dims() == a2.graded_dims()
        poset = Poset(["0", "1", "2"], [("0", "1"), ("1", "2")])
        spec = StratSpec(poset, {v: v for v in ["0", "1", "2"]}, {v: "+" for v in ["0", "1", "2"]})
        quot1, _ = a1.truncate_lower({"2"})
        quot2, _ = a2.truncate_lower({"2"})
        assert quot1.dim == quot2.dim
        assert S.check_stratified(a1, spec).ok == S.check_stratified(a2, spec).ok

    def test_infinite_dimensional_detected(self):
        pres = QuiverPresentation(
            field=QQ,
            vertices=["1"],
            arrows=[Arrow("x", "1", "1")],
            relations=[],
            degree_bound=6,
        )
        with pytest.raises(NotFiniteDimensionalWithinBound):
            build_algebra(pres)

    def test_relation_validation(self):
        with pytest.raises(AlgebraError):
            QuiverPresentation(
                field=QQ,
                vertices=["1", "2"],
                arrows=[Arrow("a", "1", "2")],
                relations=[[(QQ.one, ("a", "a"))]],
                degree_bound=4,
            )


class TestMultiply:
    def test_relations_hold(self, algA, algB):
        A, _ = algA
        u, v, z = element_by_name(A, "u"), element_by_name(A, "v"), element_by_name(A, "z")
        assert (u * v).is_zero()
        assert (z * z).is_zero()
        assert (v * u * z * v).is_zero()
        B, _ = algB
        t, y, s = element_by_name(B, "t"), element_by_name(B, "y"), element_by_name(B, "s")
        assert (t * y).is_zero()
        assert (s * s).is_zero()
        assert not (y * s).is_zero()

    def test_idempotent_units(self, algA):
        A, _ = algA
        z = element_by_name(A, "z")
        assert A.idempotent("1") * z == z
        assert z * A.idempotent("1") == z
        assert (A.idempotent("2") * z).is_zero()

    def test_total_identity(self, algA):
        A, _ = algA
        one = algebra_one(A)
        for k in range(A.dim):
            b = basis_element(A, k)
            assert one * b == b and b * one == b

    def test_grading_additivity(self, algB):
        B, _ = algB
        total = sum(B.graded_dims().values())
        assert total == B.dim

    def test_associativity_verified(self, algA, algB, qsl2_2):
        for alg in (algA[0], algB[0], qsl2_2[0]):
            assert alg.verify()

    def test_verify_remembers_a_pass(self, monkeypatch):
        B, _ = get_example("B")
        assert B.verify()
        calls = []
        monkeypatch.setattr(Algebra, "multiply", lambda *args: calls.append(args))
        assert B.verify()
        assert calls == []

    def test_broken_algebra_raises_on_every_call(self):
        B, _ = get_example("B")
        k = B.generators[0]
        mult = dict(B.mult)
        del mult[(B.idempotent_index[B.tgt(k)], k)]  # e_tgt * b_k = 0
        broken = Algebra(B.field, B.vertices, B.basis, B.idempotent_index, mult)
        for _ in range(2):
            with pytest.raises(AlgebraError, match="identity fails"):
                broken.verify()


class TestOpposite:
    def test_transposed_grading(self, algA):
        A, _ = algA
        got = A.opposite().graded_dims()
        assert got == {("1", "1"): 6, ("2", "2"): 2, ("2", "1"): 2, ("1", "2"): 4}

    def test_double_opposite_is_same_object(self, algB):
        B, _ = algB
        assert B.opposite().opposite() is B

    def test_opposite_structure_constants(self, algB):
        B, _ = algB
        opp = B.opposite()
        for (k, l), prod in B.mult.items():
            assert opp.mult[(l, k)] == prod
        opp.verify()

    def test_commutative_one_vertex(self):
        from oracles import dual_numbers

        D, _ = dual_numbers()
        opp = D.opposite()
        assert opp.mult == D.mult


class TestTruncations:
    def test_lower_kill_nothing(self, algB):
        B, _ = algB
        quot, tmap = B.truncate_lower(set())
        assert quot is B

    def test_lower_B_gives_dual_numbers(self, algB):
        B, _ = algB
        quot, tmap = B.truncate_lower({"1"})
        assert quot.dim == 2
        assert set(quot.vertices) == {"2"}
        tbar = element_by_name(quot, "t")
        assert (tbar * tbar).is_zero()
        quot.verify()

    def test_lower_semiinf_restricted_formula(self):
        alg, spec = get_example("semiinf:3")
        # killing the strata below the weight 1 leaves the ladder on [1, 3]
        quot, _ = alg.truncate_lower({"0"})
        assert quot.dim == 4 * 2 + 1

    def test_lower_quotient_map_pushes(self, algB):
        B, _ = algB
        quot, tmap = B.truncate_lower({"1"})
        y = element_by_name(B, "y")
        assert tmap.push(y).is_zero()
        t = element_by_name(B, "t")
        assert not tmap.push(t).is_zero()

    def test_commuting_boundary_relation(self):
        # killing the top vertex also kills the loop the commutation
        # relation drags below it
        big = build_algebra(reference_commuting_ladder(QQ, 0, 2))
        quot, tmap = big.truncate_lower({"2"})
        assert quot.dim == 5
        loop = element_by_name(big, "x0*y0")
        assert tmap.push(loop).is_zero()

    def test_upper_keep_all(self, algA):
        A, _ = algA
        corner = A.truncate_upper({"1", "2"})
        assert corner.dim == A.dim

    def test_upper_corner_of_A(self, algA):
        A, _ = algA
        corner = A.truncate_upper({"1"})
        assert corner.dim == 6
        corner.verify()

    def test_upper_twice(self, qsl2_2):
        Q, _ = qsl2_2
        once = Q.truncate_upper({"0", "1"})
        twice = once.truncate_upper({"0"})
        direct = Q.truncate_upper({"0"})
        assert twice.dim == direct.dim
        assert [b.name for b in twice.basis] == [b.name for b in direct.basis]

    def test_corner_matches_direct_build_with_identifications(self):
        # the corner of the window-4 algebra on 0..2 keeps the boundary
        # loop, matching the direct build on the smaller quiver; the
        # lower-set quotient kills that loop and matches the window-2
        # truncation
        big, _ = get_example("qsl2:4")
        corner = big.truncate_upper({"0", "1", "2"})
        direct = build_algebra(reference_commuting_ladder(QQ, 0, 2))
        assert corner.dim == direct.dim == 10
        assert sorted(b.name for b in corner.basis) == sorted(b.name for b in direct.basis)
        quot, _ = big.truncate_lower({"3", "4"})
        small, _ = get_example("qsl2:2")
        assert quot.dim == small.dim == 9
        assert sorted(b.name for b in quot.basis) == sorted(b.name for b in small.basis)


_CORNER_JSON = """
import json
from qstrat.examples import get_example
alg, _ = get_example("gl11:-2:3")
print(json.dumps(alg.truncate_upper({"-1", "0", "1"}).to_json()))
"""


def test_corner_json_does_not_follow_the_hash_seed():
    # the corner's idempotents follow its vertex order, not the iteration
    # order of the kept vertex set, which changes with PYTHONHASHSEED
    outs = []
    for seed in range(6):
        env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=str(seed))
        argv = [sys.executable, "-c", _CORNER_JSON]
        outs.append(subprocess.run(argv, env=env, capture_output=True, check=True).stdout)
    assert len(set(outs)) == 1
    data = json.loads(outs[0])
    assert data["vertices"] == ["-1", "0", "1"]
    assert list(data["idempotents"]) == data["vertices"]


class TestJson:
    def test_round_trip(self, algB):
        B, _ = algB
        data = B.presentation.to_json()
        rebuilt = build_algebra(QuiverPresentation.from_json(json.loads(json.dumps(data))))
        assert rebuilt.dim == B.dim
        assert rebuilt.graded_dims() == B.graded_dims()

    def test_fraction_coefficients(self):
        data = {
            "field": "Q",
            "vertices": ["1"],
            "arrows": [{"name": "x", "src": "1", "tgt": "1"}],
            "relations": [[{"coeff": "1/2", "path": ["x", "x"]}]],
            "degree_bound": 5,
        }
        alg = build_algebra(QuiverPresentation.from_json(data))
        assert alg.dim == 2

    def test_prime_field(self):
        data = {
            "field": "Fp:5",
            "vertices": ["1"],
            "arrows": [{"name": "x", "src": "1", "tgt": "1"}],
            "relations": [[{"coeff": "1", "path": ["x", "x", "x"]}]],
            "degree_bound": 5,
        }
        alg = build_algebra(QuiverPresentation.from_json(data))
        assert alg.dim == 3
        assert alg.field.p == 5


class TestRadical:
    def test_semisimple_radical_zero(self):
        K, _ = get_example("kxk")
        assert K.radical_basis() == []
        assert K.is_semisimple()

    def test_B_radical(self, algB):
        B, _ = algB
        assert len(B.radical_basis()) == 4

    def test_char_too_small(self):
        from qstrat.algebra import CharTooSmall
        from qstrat.exactla import PrimeField

        alg, _ = get_example("B", PrimeField(3))
        with pytest.raises(CharTooSmall):
            alg.radical_basis()

    def test_radical_large_prime_ok(self):
        from qstrat.exactla import PrimeField

        alg, _ = get_example("B", PrimeField(11))
        assert len(alg.radical_basis()) == 4

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
    @pytest.mark.parametrize("name", RADICAL_EXAMPLES)
    def test_radical_bound_is_the_largest_vertex_space(self, name, p):
        """The trace-form radical answers exactly when p > dim e_v A for
        every vertex v, read off the graded dimensions, and then spans the
        non-idempotent basis elements: a built algebra's path-length
        radical, which does not depend on the characteristic."""
        from qstrat.algebra import CharTooSmall
        from qstrat.exactla import Matrix, PrimeField

        alg, _ = get_example(name, PrimeField(p))
        rows = {}
        for (i, _), d in alg.graded_dims().items():
            rows[i] = rows.get(i, 0) + d
        if p <= max(rows.values()):
            with pytest.raises(CharTooSmall):
                alg.radical_basis()
            return
        rad = [r.dense() for r in alg.radical_basis()]
        idempotents = set(alg.idempotent_index.values())
        assert len(rad) == alg.dim - len(idempotents)
        assert Matrix(alg.field, rad, alg.dim).rank() == len(rad)
        assert all(alg.field.is_zero(r[k]) for r in rad for k in idempotents)


class TestQuotientIdentification:
    """A truncation that identifies two surviving loops (rather than just
    killing basis elements) exercises the combination branch of the
    quotient map."""

    @staticmethod
    def build(field=QQ, tail=False):
        """With tail, a vertex 0 and an arrow z from it to 1 as well."""
        arrows = [
            Arrow("a", "1", "1"),
            Arrow("b", "1", "1"),
            Arrow("u", "1", "2"),
            Arrow("v", "2", "1"),
        ] + ([Arrow("z", "0", "1")] if tail else [])
        one = field.one
        rels = [
            [(one, ("a", "a"))],
            [(one, ("b", "b"))],
            [(one, ("a", "b"))],
            [(one, ("b", "a"))],
            [(one, ("u", "v"))],
            [(one, ("u", "a"))],
            [(one, ("u", "b"))],
            [(one, ("a", "v"))],
            [(one, ("b", "v"))],
            # the loop through the second vertex equals a + b
            [(one, ("v", "u")), (field.of(-1), ("a",)), (field.of(-1), ("b",))],
        ]
        vertices = ["0", "1", "2"] if tail else ["1", "2"]
        return build_algebra(
            QuiverPresentation(field=field, vertices=vertices, arrows=arrows, relations=rels, degree_bound=5)
        )

    def test_identified_loops(self):
        alg = self.build()
        quot, tmap = alg.truncate_lower({"2"})
        # the ideal swallows v*u = a + b, so one loop maps to minus the other
        a_img = tmap.push(element_by_name(alg, "a"))
        b_img = tmap.push(element_by_name(alg, "b"))
        assert not a_img.is_zero() or not b_img.is_zero()
        assert (a_img + b_img).is_zero()
        assert quot.verify()
        from qstrat import rep as RR

        # modules over the quotient inflate to valid modules
        P = RR.projective(quot, "1")
        from qstrat.strat import inflate

        big = inflate(P, alg, tmap)
        check_valid(big)

    @pytest.mark.parametrize("field", ["Q", "Fp:1000003"])
    def test_generators_are_the_supports_of_the_images(self, field):
        from qstrat import rep as RR

        alg = self.build(field_from_name(field), tail=True)
        quot, tmap = alg.truncate_lower({"2"})
        # a and b map onto plus or minus one kept loop, z onto itself, and u
        # and v to zero
        loops = [tmap.images[k] for k in alg.generators if alg.basis[k].src == alg.basis[k].tgt]
        assert len(loops) == 2 and all(len(img) == 1 for img in loops)
        z = element_by_name(alg, "z").coeffs
        assert quot.generators == (loops[0][0][0], tmap.keep.index(*z))
        # every non-idempotent also counts the loop times z; Hom reads the
        # same basis with them all as generators
        every = Algebra(quot.field, quot.vertices, quot.basis, quot.idempotent_index, quot.mult)
        assert every.generators == tuple(k for k in range(quot.dim) if k not in quot.idempotent_index.values())
        assert len(every.generators) == len(quot.generators) + 1
        mods = [
            make(quot, v)
            for v in quot.vertices
            for make in (RR.projective, RR.injective, RR.simple_rep)
        ] + [RR.free_module(quot, {v: 2 for v in quot.vertices})]
        for m in mods:
            for n in mods:
                twins = [RR.Rep(every, x.dims, x.act) for x in (m, n)]
                want = [phi.mats for phi in RR.hom_space(*twins)]
                assert [phi.mats for phi in RR.hom_space(m, n)] == want


class TestTruncationMemo:
    """Truncations are memoized per algebra and vertex set."""

    def test_lower_same_objects_for_equal_sets(self, algB):
        B, _ = algB
        first = B.truncate_lower({"1"})
        for kill in (["1"], frozenset({"1"}), {"1"}):
            again = B.truncate_lower(kill)
            assert again[0] is first[0] and again[1] is first[1]

    def test_upper_same_object_for_equal_sets(self, algA):
        A, _ = algA
        first = A.truncate_upper({"1"})
        for keep in (["1"], frozenset({"1"}), {"1"}):
            assert A.truncate_upper(keep) is first

    def test_upper_of_all_vertices_is_the_algebra(self, algA, algB):
        for alg, _ in (algA, algB):
            assert alg.truncate_upper(alg.vertices) is alg
            assert alg.truncate_upper(set(alg.vertices)) is alg
            assert alg.opposite().truncate_upper(alg.vertices) is alg.opposite()
            with pytest.raises(AlgebraError):
                alg.truncate_upper({*alg.vertices, "9"})

    def test_unknown_vertex_raises_on_every_call(self, algB):
        B, _ = algB
        for _ in range(2):
            with pytest.raises(AlgebraError):
                B.truncate_lower({"9"})
            with pytest.raises(AlgebraError):
                B.truncate_lower({"1", "9"})
            with pytest.raises(AlgebraError):
                B.truncate_upper({"9"})


def _dense_quotient_map(alg, kill):
    """The earlier dense construction of the quotient map: reduce a dense
    vector modulo the rref of the ideal, row by row, then read off the
    coordinates of the surviving basis elements.  Returns (keep, push),
    push sending an element to a {quotient index: coefficient} dict."""
    f = alg.field
    ideal = alg._ideal_span(set(kill))
    lead_of_row = [next((j for j, a in enumerate(row) if not f.is_zero(a)), None) for row in ideal.rows]
    keep = [k for k in range(alg.dim) if k not in set(lead_of_row)]

    def reduce_vec(v):
        v = list(v)
        for row, lead in zip(ideal.rows, lead_of_row):
            if lead is None:
                continue
            c = v[lead]
            if not f.is_zero(c):
                for j in range(alg.dim):
                    v[j] = f.sub(v[j], f.mul(c, row[j]))
        return v

    def push(x):
        red = reduce_vec(x.dense())
        return {i: red[k] for i, k in enumerate(keep) if not f.is_zero(red[k])}

    return keep, push


def _lower_sets(poset):
    elems = list(poset.elements)
    for mask in range(1 << len(elems)):
        chosen = {e for i, e in enumerate(elems) if mask >> i & 1}
        if lower_set(poset, chosen) == chosen:
            yield chosen


def _reference_cases(field):
    for name in ("A", "B", "semiinf:3", "qsl2:3", "gl11:-1:2", "dzig:-1:2"):
        alg, spec = get_example(name, field)
        for lower in _lower_sets(spec.poset):
            yield name, alg, {v for v in alg.vertices if spec.stratum_of[v] not in lower}
    alg = TestQuotientIdentification.build(field)
    for mask in range(1 << len(alg.vertices)):
        yield "identification", alg, {v for i, v in enumerate(alg.vertices) if mask >> i & 1}


@pytest.mark.parametrize("field_name", ["Q", "Fp:1000003"])
def test_sparse_truncation_map_matches_dense_reference(field_name):
    checked = 0
    for name, alg, kill in _reference_cases(field_from_name(field_name)):
        quot, tmap = alg.truncate_lower(kill)
        keep, push = _dense_quotient_map(alg, kill)
        assert list(tmap.keep) == keep, (name, kill)
        for k in range(alg.dim):
            assert tmap.push(basis_element(alg, k)).coeffs == push(basis_element(alg, k)), (name, kill, k)
        table = {}
        for i, k in enumerate(keep):
            for j, l in enumerate(keep):
                if alg.src(k) == alg.tgt(l):
                    want = push(alg.multiply(basis_element(alg, k), basis_element(alg, l)))
                    if want:
                        table[(i, j)] = want
        assert {ij: dict(prod) for ij, prod in quot.mult.items()} == table, (name, kill)
        checked += 1
    # A and B: 3 lower sets each; four 4-chains: 5 each; 4 vertex subsets
    assert checked == 2 * 3 + 4 * 5 + 4
