"""The built-in families are templates realized on a window.

`examples.FAMILIES` holds the monomial and commuting ladders as family
templates, and `examples.realize` builds every window from them, for
`examples:` names and family files alike.  The windows are pinned
byte for byte against the hand-written builders they replaced
(`oracles.reference_*`), over Q and F_1000003, and the commuting ladder's
relations against the builder's order, which bounded completion's cost
depends on.
"""

import json

import pytest

from oracles import (
    reference_basis_locator,
    reference_commuting_ladder,
    reference_gl11,
    reference_quantum_sl2,
    reference_semi_infinite,
    reference_two_sided_monomial,
)

from qstrat import tilting as TL
from qstrat.cli import _load_algebra_arg, main
from qstrat.examples import FAMILIES, family_presentation, get_example
from qstrat.algebra import Arrow
from qstrat.exactla import QQ, field_from_name

FIELDS = ["Q", "Fp:1000003"]
WINDOWS = (
    [(f"semiinf:{w}", reference_semi_infinite, (w,)) for w in (1, 3, 12, 100)]
    + [(f"qsl2:{w}", reference_quantum_sl2, (w,)) for w in (1, 5, 12, 59)]
    + [(f"gl11:{lo}:{hi}", reference_gl11, (lo, hi)) for lo, hi in ((-1, 1), (-3, 9), (0, 5))]
    + [(f"dzig:{lo}:{hi}", reference_two_sided_monomial, (lo, hi)) for lo, hi in ((-1, 2), (-3, 4), (-2, 11), (0, 139))]
)


def _dumps(pair):
    alg, spec = pair
    return json.dumps(alg.to_json()), json.dumps(spec.to_json())


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("name, reference, window", WINDOWS, ids=[w[0] for w in WINDOWS])
def test_window_is_the_reference_byte_for_byte(name, reference, window, field):
    f = field_from_name(field)
    assert _dumps(get_example(name, f)) == _dumps(reference(*window, field=f))


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("family", ["qsl2", "gl11"])
@pytest.mark.parametrize("lo, hi", [(0, 2), (-4, 10), (0, 60)])
def test_commuting_relations_go_shift_by_shift(family, lo, hi, field):
    f = field_from_name(field)
    pres = family_presentation(FAMILIES[family], lo, hi, f)
    want = reference_commuting_ladder(f, lo, hi)
    assert pres.vertices == want.vertices and pres.arrows == want.arrows
    assert pres.relations == want.relations
    assert pres.degree_bound == want.degree_bound


def test_shifts_follow_the_template_offsets():
    """Each arrow template is instantiated at every shift that puts its
    ends in the window, whatever its offsets, and each relation at every
    shift whose arrows exist."""
    fam = {
        "arrows": [{"name": "z{i}", "src": "{i+2}", "tgt": "{i+3}"}],
        "relations": [[{"coeff": "1", "path": ["z{i+1}", "z{i}"]}]],
    }
    pres = family_presentation(fam, 0, 3, QQ)
    assert pres.arrows == [Arrow("z-2", "0", "1"), Arrow("z-1", "1", "2"), Arrow("z0", "2", "3")]
    assert pres.relations == [[(QQ.one, ("z-1", "z-2"))], [(QQ.one, ("z0", "z-1"))]]


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize(
    "family, window, name",
    [
        ("gl11", [0, 3], "gl11:0:3"),
        ("dzig", [0, 2], "dzig:0:2"),
        ("semiinf", [1, 3], "dzig:1:3"),
        ("semiinf", [0, 4], "semiinf:4"),
        ("qsl2", [0, 3], "qsl2:3"),
        ("gl11", [-2, 1], "gl11:-2:1"),
    ],
)
def test_named_family_file_is_the_example(tmp_path, family, window, name, field):
    """A named family file realizes the built-in template on the file's
    own window, over --field."""
    path = tmp_path / "named.json"
    path.write_text(json.dumps({"family": {"name": family}, "window": window}))
    f = field_from_name(field)
    assert _dumps(_load_algebra_arg(str(path), f, None)) == _dumps(get_example(name, f))


def test_named_family_file_builds_from_the_cli(tmp_path, capsys):
    path = tmp_path / "named.json"
    path.write_text(json.dumps({"family": {"name": "gl11"}, "window": [0, 3]}))
    assert main(["build", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["data"]["dim"] == get_example("gl11:0:3")[0].dim


@pytest.mark.parametrize(
    "family, window, error",
    [
        ({"name": "sl3"}, [0, 3], "unknown family 'sl3'"),
        ({"name": ["gl11"]}, [0, 3], "unknown family ['gl11']"),
        ({"name": "gl11"}, [0], "a family window is [lo, hi]"),
        ({"name": "gl11"}, ["a", 1], "a family window is [lo, hi]"),
        ({"name": "gl11"}, None, "a family window is [lo, hi]"),
        ({"name": "gl11"}, [3, 1], "empty family window"),
        # a bound is a JSON integer or a string of digits with an optional
        # minus sign, read by the same parser as tower windows
        ({"name": "semiinf"}, [0, 3.7], "a family window is [lo, hi]"),
        ({"name": "semiinf"}, [0, 3.0], "a family window is [lo, hi]"),
        ({"name": "semiinf"}, [False, True], "a family window is [lo, hi]"),
        ({"name": "semiinf"}, [0, "1_0"], "a family window is [lo, hi]"),
        ({"name": "semiinf"}, [0, "+3"], "a family window is [lo, hi]"),
        ({"name": "semiinf"}, [0, " 3"], "a family window is [lo, hi]"),
        ({"name": "semiinf"}, "03", "a family window is [lo, hi]"),
        ({"name": "semiinf"}, [0, 3, 5], "a family window is [lo, hi]"),
    ],
)
def test_bad_family_file_is_an_input_error(tmp_path, capsys, family, window, error):
    path = tmp_path / "named.json"
    path.write_text(json.dumps({"family": family, "window": window}))
    assert main(["build", str(path)]) == 2
    assert error in capsys.readouterr().err


def test_family_window_takes_integer_strings(tmp_path, capsys):
    path = tmp_path / "named.json"
    path.write_text(json.dumps({"family": {"name": "gl11"}, "window": ["-1", "2"]}))
    assert main(["build", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["data"]["dim"] == get_example("gl11:-1:2")[0].dim


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("name", ["semiinf:3", "semiinf:12", "qsl2:3", "gl11:-1:2", "dzig:-1:2", "A", "B"])
def test_written_example_builds_the_example(tmp_path, capsys, name, field):
    """`examples NAME` writes a presentation (or structure constants, for a
    derived window); building that file gives the example back."""
    prefix = str(tmp_path / "x")
    assert main(["--field", field, "examples", name, "--prefix", prefix]) == 0
    capsys.readouterr()
    f = field_from_name(field)
    alg, spec = get_example(name, f)
    written, _ = _load_algebra_arg(f"{prefix}.algebra.json", f, None)
    assert json.dumps(written.to_json()) == json.dumps(alg.to_json())
    with open(f"{prefix}.strat.json") as fh:
        assert json.load(fh) == spec.to_json()


@pytest.mark.parametrize("name", ["B", "semiinf:2", "qsl2:3", "gl11:-1:1"])
def test_dual_grades_list_the_hom_bases_in_order(name):
    """The Ringel dual's grade (T_i, T_j) lists the basis of Hom(T_i, T_j)
    in order: the one map from basis positions to Hom coordinates."""
    rd = TL.ringel_dual(*get_example(name))
    pos = {n: i for i, n in enumerate(rd.names)}
    grades = {
        k: (pos[bt], pos[bs], t)
        for (bt, bs), ks in rd.dual_algebra.by_grade.items()
        for t, k in enumerate(ks)
    }
    assert grades == reference_basis_locator(rd)
