"""File-format round trips and the cross-module preservation invariants:
lower-set truncation preserving standard modules, corner truncation
mapping projectives and tiltings to their counterparts, and the
multiplicity normalization of the signed tilting modules."""

import json

import pytest

from oracles import (
    element_by_name,
    reference_gl11,
    reference_quantum_sl2,
    reference_semi_infinite,
    reference_two_sided_monomial,
)

from qstrat import rep as R
from qstrat import strat as S
from qstrat import tilting as TL
from qstrat.cli import InputError, _load_algebra_arg, main
from qstrat.examples import FAMILIES, family_presentation, get_example
from qstrat.exactla import QQ, field_from_name


MONO_LADDER_FAMILY = {
    "field": "Q",
    "arrows": [
        {"name": "y{i}", "src": "{i}", "tgt": "{i+1}"},
        {"name": "x{i}", "src": "{i+1}", "tgt": "{i}"},
    ],
    "relations": [
        [{"coeff": "1", "path": ["y{i+1}", "y{i}"]}],
        [{"coeff": "1", "path": ["x{i}", "x{i+1}"]}],
        [{"coeff": "1", "path": ["x{i}", "y{i}"]}],
    ],
    "order": "reversed",
    "truncation": "naive",
    "degree_bound": 5,
}

COMMUTING_LADDER_FAMILY = {
    "field": "Q",
    "arrows": [
        {"name": "x{i}", "src": "{i}", "tgt": "{i+1}"},
        {"name": "y{i}", "src": "{i+1}", "tgt": "{i}"},
    ],
    "relations": [
        [{"coeff": "1", "path": ["x{i+1}", "x{i}"]}],
        [{"coeff": "1", "path": ["y{i}", "y{i+1}"]}],
        [
            {"coeff": "1", "path": ["x{i}", "y{i}"]},
            {"coeff": "-1", "path": ["y{i+1}", "x{i+1}"]},
        ],
    ],
    "order": "natural",
    "truncation": "lower",
    "degree_bound": 6,
}


def _family_window(tmp_path, family, window):
    """The algebra and stratification a family file gives."""
    path = tmp_path / "fam.json"
    path.write_text(json.dumps({"family": family, "window": window}))
    alg, spec = _load_algebra_arg(str(path), QQ, None)
    return json.dumps(alg.to_json()), json.dumps(spec.to_json())


def _reference(pair):
    alg, spec = pair
    return json.dumps(alg.to_json()), json.dumps(spec.to_json())


class TestFamilyDsl:
    def test_builtin_families_are_these_templates(self):
        # without the field: a named family is built over --field
        mono = {k: v for k, v in MONO_LADDER_FAMILY.items() if k != "field"}
        commuting = {k: v for k, v in COMMUTING_LADDER_FAMILY.items() if k != "field"}
        assert FAMILIES["semiinf"] == FAMILIES["dzig"] == mono
        assert FAMILIES["qsl2"] == commuting
        assert FAMILIES["gl11"] == dict(commuting, truncation="interval")

    def test_monomial_family_matches_builtin(self, tmp_path):
        got = _family_window(tmp_path, MONO_LADDER_FAMILY, [0, 3])
        assert got == _reference(reference_semi_infinite(3))
        assert json.loads(got[0])["idempotents"] == {str(i): i for i in range(4)}

    def test_commuting_family_matches_builtin(self, tmp_path):
        got = _family_window(tmp_path, COMMUTING_LADDER_FAMILY, [0, 3])
        assert got == _reference(reference_quantum_sl2(3))

    def test_interval_truncation(self, tmp_path):
        family = dict(COMMUTING_LADDER_FAMILY, truncation="interval")
        assert _family_window(tmp_path, family, [-1, 1]) == _reference(reference_gl11(-1, 1))

    def test_naive_window_of_the_two_sided_zigzag(self, tmp_path):
        got = _family_window(tmp_path, MONO_LADDER_FAMILY, [-3, 4])
        assert got == _reference(reference_two_sided_monomial(-3, 4))

    def test_template_instantiation_bounds(self):
        pres = family_presentation(MONO_LADDER_FAMILY, 0, 2, QQ)
        names = {a.name for a in pres.arrows}
        assert names == {"y0", "y1", "x0", "x1"}
        assert len(pres.relations) == 1 + 1 + 2  # one yy, one xx, two xy

    def test_cli_family_file(self, tmp_path, capsys):
        path = tmp_path / "fam.json"
        path.write_text(json.dumps({"family": MONO_LADDER_FAMILY, "window": [0, 2]}))
        code = main(["build", str(path)])
        out = json.loads(capsys.readouterr().out)
        assert code == 0 and out["data"]["dim"] == 9

    def test_cli_family_verify_uses_chain_spec(self, tmp_path, capsys):
        path = tmp_path / "fam.json"
        path.write_text(json.dumps({"family": MONO_LADDER_FAMILY, "window": [0, 2]}))
        code = main(["verify", str(path)])
        out = json.loads(capsys.readouterr().out)
        assert code == 0 and out["ok"]

    def test_cli_named_family(self, tmp_path, capsys):
        path = tmp_path / "fam.json"
        path.write_text(json.dumps({"family": {"name": "semiinf"}, "window": [0, 2]}))
        code = main(["build", str(path)])
        out = json.loads(capsys.readouterr().out)
        assert code == 0 and out["data"]["dim"] == 9


def _field_file(tmp_path, kind, field, capsys):
    """An input file of the kind, naming field: the monomial ladder's
    template family on [0, 2], examples:B's presentation as `examples`
    writes it, or the structure constants of its Ringel dual as `ringel`
    dumps them."""
    if kind == "template":
        path = tmp_path / "fam.json"
        path.write_text(json.dumps({"family": dict(MONO_LADDER_FAMILY, field=field), "window": [0, 2]}))
        return str(path)
    if kind == "presentation":
        assert main(["--field", field, "examples", "B", "--prefix", str(tmp_path / "B")]) == 0
        path = str(tmp_path / "B.algebra.json")
    else:
        path = str(tmp_path / "dual.json")
        assert main(["--field", field, "ringel", "examples:B", "--dump-dual", path]) == 0
    capsys.readouterr()
    return path


def _build_report(argv, capsys):
    code = main(argv)
    out = json.loads(capsys.readouterr().out)
    del out["elapsed_s"]
    return code, out


@pytest.mark.parametrize("kind", ["template", "presentation", "structure"])
class TestInputFields:
    """A file that names its field is read over it: without --field or
    with the same one, as before; a --field naming another is an input
    error naming both."""

    def test_the_file_field_is_read(self, tmp_path, capsys, kind):
        path = _field_file(tmp_path, kind, "Fp:1000003", capsys)
        for given in (None, field_from_name("Fp:1000003")):
            assert _load_algebra_arg(path, given, None)[0].field.name == "Fp:1000003"
        plain = _build_report(["build", path], capsys)
        assert plain[0] == 0
        assert _build_report(["--field", "Fp:1000003", "build", path], capsys) == plain

    @pytest.mark.parametrize("file_field, given", [("Fp:1000003", "Q"), ("Q", "Fp:1000003"), ("Q", "Fp:101")])
    def test_another_field_is_an_input_error(self, tmp_path, capsys, kind, file_field, given):
        path = _field_file(tmp_path, kind, file_field, capsys)
        with pytest.raises(InputError, match="over the field"):
            _load_algebra_arg(path, field_from_name(given), None)
        assert main(["--field", given, "build", path]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": f"{path} is over the field {file_field}, not the --field {given}", "ok": False}


@pytest.mark.parametrize("given", [[], ["--field", "Q"]])
def test_a_field_that_is_not_a_name_is_an_input_error(tmp_path, capsys, given):
    path = tmp_path / "B.json"
    path.write_text(json.dumps(dict(get_example("B")[0].presentation.to_json(), field=5)))
    assert main([*given, "build", str(path)]) == 2
    assert json.loads(capsys.readouterr().err) == {"error": "unknown field 5", "ok": False}


@pytest.mark.parametrize("family", [{"name": "semiinf"}, {k: v for k, v in MONO_LADDER_FAMILY.items() if k != "field"}])
def test_a_family_naming_no_field_follows_the_field_option(tmp_path, capsys, family):
    path = tmp_path / "fam.json"
    path.write_text(json.dumps({"family": family, "window": [0, 2]}))
    assert _load_algebra_arg(str(path), None, None)[0].field is QQ
    assert _load_algebra_arg(str(path), field_from_name("Fp:101"), None)[0].field.name == "Fp:101"
    assert main(["--field", "Fp:101", "build", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["data"]["dim"] == 9


class TestCliTriangular:
    def test_triangular_command(self, tmp_path, capsys):
        alg, spec = get_example("semiinf:2")
        gamma = ["0", "1", "2"]
        minus = [alg.idempotent(g) for g in gamma] + [
            element_by_name(alg, f"y{i}") for i in range(2)
        ]
        circ = [alg.idempotent(g) for g in gamma]
        plus = [alg.idempotent(g) for g in gamma] + [
            element_by_name(alg, f"x{i}") for i in range(2)
        ]
        # the CLI loads the algebra from the example name, so the data file
        # must reference the same basis order
        td = {
            "kind": "triangular",
            "gamma": gamma,
            "covers": [list(c) for c in spec.poset.covers],
            **{key: [{str(k): str(c) for k, c in x.coeffs.items()} for x in elements]
               for key, elements in (("lowering", minus), ("diagonal", circ), ("raising", plus))},
        }
        td_path = tmp_path / "td.json"
        td_path.write_text(json.dumps(td))
        code = main(["triangular", "examples:semiinf:2", str(td_path), "--emit-based"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0 and out["ok"]
        assert out["data"]["flavor"] == "QH"


class TestTruncationPreservation:
    def test_lower_set_preserves_standards(self):
        # standard and costandard modules computed in the lower quotient
        # agree with those of the full algebra on lower-set labels
        Q, spec = get_example("qsl2:3")
        fam = S.standard_family(Q, spec)
        quot, tmap = Q.truncate_lower({"3"})
        sub_spec = S.StratSpec(
            spec.poset, {v: v for v in quot.vertices}, {v: "+" for v in spec.poset.elements}
        )
        sub_fam = S.standard_family(quot, sub_spec)
        for b in quot.vertices:
            big = fam.standard(b)
            small = S.inflate(sub_fam.standard(b), Q, tmap)
            assert R.isomorphism(big, small) is not None
            bigc = fam.costandard(b)
            smallc = S.inflate(sub_fam.costandard(b), Q, tmap)
            assert R.isomorphism(bigc, smallc) is not None

    def test_corner_maps_projectives_and_tiltings(self):
        # the corner truncation carries projectives and tiltings of the
        # full algebra to those of the corner, for labels in the upper set
        B, spec = get_example("B")
        upper = {"1"}  # the top of the order 2 < 1
        corner = B.truncate_upper(upper)
        sub_spec = S.StratSpec(spec.poset, {"1": "1"}, spec.signs)
        for b in upper:
            P = R.projective(B, b)
            jP = S.restrict(P, corner, B.corner_positions(upper))
            assert R.isomorphism(jP, R.projective(corner, b)) is not None
        tset = TL.tilting_set(B, spec.with_signs({"1": "+", "2": "-"}))
        sub_tset = TL.tilting_set(corner, sub_spec.with_signs({"1": "+", "2": "-"}))
        for b in upper:
            jT = S.restrict(tset.module(b), corner, B.corner_positions(upper))
            assert R.isomorphism(jT, sub_tset.module(b)) is not None

    def test_lower_set_preserves_tiltings(self):
        Q, spec = get_example("qsl2:3")
        tset = TL.tilting_set(Q, spec)
        quot, tmap = Q.truncate_lower({"3"})
        sub_spec = S.StratSpec(
            spec.poset, {v: v for v in quot.vertices}, {v: "+" for v in spec.poset.elements}
        )
        sub_tset = TL.tilting_set(quot, sub_spec)
        for b in quot.vertices:
            big = tset.module(b)
            small = S.inflate(sub_tset.module(b), Q, tmap)
            assert R.isomorphism(big, small) is not None


class TestTiltingMultiplicityNormalization:
    def test_plus_sign_single_standard_in_stratum(self):
        # at a plus stratum the tilting has exactly one standard section at
        # its own label and none at other labels of the same stratum
        B, spec = get_example("B")
        tset = TL.tilting_set(B, spec.with_signs({"1": "+", "2": "-"}))
        cert = tset.std_certs["1"]
        assert cert.multiplicities().get("1") == 1
        cert2 = tset.costd_certs["2"]
        assert cert2.multiplicities().get("2") == 1

    def test_dual_algebra_has_two_simples(self):
        B, spec = get_example("B")
        rd = TL.ringel_dual(B, spec.with_signs({"1": "+", "2": "-"}))
        L = R.simples(rd.dual_algebra)
        assert len(L) == 2

    def test_witness_serialization(self):
        B, spec = get_example("B")
        rep = S.check_stratified(B, spec.with_signs({"1": "-", "2": "-"}), with_witnesses=True)
        assert rep.ok
        cert = next(
            c.details["certificate"]
            for c in rep.checks
            if c.name.startswith("projective_flag") and "certificate" in c.details
        )
        assert cert["sections"]
        assert len(cert["witnesses"]) == len(cert["sections"])
        json.dumps(rep.to_dict())
