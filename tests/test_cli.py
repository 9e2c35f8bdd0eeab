import ast
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import qstrat
from qstrat import rep as R
from qstrat.cli import main

SRC = os.path.dirname(os.path.dirname(qstrat.__file__))


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def _triangular(**fields):
    """The triangular decomposition of examples:B as a data file's text,
    with the given fields replaced; elements map basis indices (e_1, e_2,
    s, t, y, y*s) to coefficients."""
    data = {
        "kind": "triangular",
        "gamma": ["1", "2"],
        "covers": [["2", "1"]],
        "lowering": [{"0": "1"}, {"1": "1"}, {"4": "1"}],
        "diagonal": [{"0": "1"}, {"1": "1"}, {"2": "1"}, {"3": "1"}],
        "raising": [{"0": "1"}, {"1": "1"}],
    }
    return json.dumps({**data, **fields})


# a script's ran(): whether the body of qstrat.based has run, read from its
# namespace without an attribute read, which would run it
_BASED_RAN = (
    "def ran():\n"
    "    based = sys.modules['qstrat.based']\n"
    "    return 'verify_based' in object.__getattribute__(based, '__dict__')\n"
)


def _fresh(script):
    """Run script in a fresh interpreter that imports qstrat from SRC, and
    return its standard output."""
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout


def _strat(covers=(("2", "1"),), **fields):
    """The stratification of examples:B as a --strat file's text, with the
    covers and the given fields replaced."""
    data = {
        "poset": {"elements": ["1", "2"], "covers": covers},
        "rho": {"1": "1", "2": "2"},
        "epsilon": {"1": "+", "2": "+"},
    }
    return json.dumps({**data, **fields})


class TestBuild:
    def test_example_A(self, capsys):
        code, rep = run(["build", "examples:A"], capsys)
        assert code == 0
        assert rep["data"]["dim"] == 14
        assert rep["data"]["graded_dims"] == {"1,1": 6, "1,2": 2, "2,1": 4, "2,2": 2}

    def test_example_B(self, capsys):
        code, rep = run(["build", "examples:B"], capsys)
        assert code == 0
        assert rep["data"]["dim"] == 6

    @pytest.mark.parametrize("name", ["B", "semiinf:99"])
    def test_associative_check_has_no_mode(self, name, capsys):
        # semiinf:99 has 6,302 composable triples; every algebra has all
        # of its triples checked
        code, rep = run(["build", f"examples:{name}"], capsys)
        assert code == 0
        assoc = next(c for c in rep["checks"] if c["name"] == "associative")
        assert assoc == {"name": "associative", "ok": True, "details": {}}

    @pytest.mark.parametrize("field", ["Q", "Fp:1000003"])
    def test_a_table_past_80_cubed_triples_is_checked_in_full(self, field, tmp_path, capsys):
        # k[x]/(x^81) with x * x^3 = 2 x^4, so (x x) x^2 = x^4 but
        # x (x x^2) = 2 x^4: a failure that a sample of its 81**3 triples
        # can miss
        n = 81
        basis = [{"name": f"x^{i}", "src": "1", "tgt": "1", "word": None} for i in range(n)]
        mult = [[i, j, [[i + j, "2" if (i, j) == (1, 3) else "1"]]] for i in range(n) for j in range(n - i)]
        path = tmp_path / "broken.json"
        path.write_text(json.dumps({"field": field, "vertices": ["1"], "basis": basis, "idempotents": {"1": 0}, "mult": mult}))
        assert _input_error(["build", str(path)], capsys) == {"error": "associativity fails at (1,1,2)", "ok": False}

    def test_closed_stdout_is_an_io_error(self):
        # the reader is gone before the report is written: exit 2 (an I/O
        # failure, as for a missing file), not 1 (a failed check), and no
        # traceback
        env = dict(os.environ, PYTHONPATH=SRC)
        argv = [sys.executable, "-m", "qstrat.cli", "build", "examples:qsl2:20"]
        proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait() == 2
        assert "Traceback" not in err and "BrokenPipeError" not in err

    def test_single_point(self, capsys):
        code, rep = run(["build", "examples:point"], capsys)
        assert code == 0
        assert rep["data"]["dim"] == 1

    def test_unknown_example_is_config_error(self, capsys):
        assert main(["build", "examples:nothere"]) == 2

    @pytest.mark.parametrize(
        "name, message",
        [
            ("semiinf", "does not match 'semiinf:N'"),
            ("gl11:1", "does not match 'gl11:LO:HI'"),
            ("semiinf:x", "'x' is not an integer"),
            ("A:5", "does not match 'A'"),
            ("semiinf:-1", "empty window"),
            ("qsl2:-2", "empty window"),
            ("gl11:3:1", "empty window"),
            ("dzig:0:-1", "empty window"),
            # Python's int() takes each of these; a parameter is -?[0-9]+
            ("semiinf:1_0", "'1_0' is not an integer"),
            ("semiinf:+3", "'+3' is not an integer"),
            ("semiinf: 3", "' 3' is not an integer"),
            ("gl11:-1:\u0662", "'\u0662' is not an integer"),
        ],
        ids=[
            "missing-parameter",
            "too-few-parameters",
            "non-integer-parameter",
            "extra-parameter",
            "semiinf-negative",
            "qsl2-negative",
            "gl11-reversed",
            "dzig-reversed",
            "underscore",
            "plus-sign",
            "space",
            "arabic-indic-digit",
        ],
    )
    def test_malformed_example_name_is_config_error(self, name, message, capsys):
        assert main(["build", f"examples:{name}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["ok"] is False and message in err["error"]

    def test_sympy_not_imported_by_a_job_that_splits_nothing(self):
        # sympy is only needed to split a module with a non-local End/rad;
        # importing the CLI or building an algebra must not load it
        script = (
            "import io, sys, contextlib\n"
            "import qstrat.cli\n"
            "assert 'sympy' not in sys.modules, 'loaded by import'\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert qstrat.cli.main(['build', 'examples:B']) == 0\n"
            "assert 'sympy' not in sys.modules, 'loaded by build'\n"
        )
        _fresh(script)

    def test_cli_import_loads_no_dataclasses_and_defers_based(self):
        # dataclasses pulls in inspect, ast, dis and tokenize; the based
        # layer is registered but its body waits for its first reader
        _fresh(
            "import sys\n"
            "import qstrat.cli\n"
            "assert 'dataclasses' not in sys.modules and 'inspect' not in sys.modules\n"
            + _BASED_RAN
            + "assert not ran(), 'based ran on import'\n"
        )

    def test_commands_without_cells_leave_based_unexecuted(self):
        _fresh(
            "import io, sys, contextlib\n"
            "import qstrat.cli\n"
            + _BASED_RAN
            + "for argv in (['build', 'examples:B'], ['verify', 'examples:B'], ['ringel', 'examples:B'],\n"
            "             ['tower', 'semiinf', '--window', '2,3', '--labels', '0,1']):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert qstrat.cli.main(argv) == 0, argv\n"
            "    assert not ran(), argv\n"
        )

    @pytest.mark.parametrize("command", ["cellular", "triangular"])
    def test_cellular_and_triangular_run_based(self, command, tmp_path):
        path = tmp_path / "td.json"
        path.write_text(_triangular())
        argv = {
            "cellular": ["cellular", "examples:B"],
            "triangular": ["triangular", "examples:B", str(path), "--emit-based"],
        }[command]
        out = _fresh(
            "import sys\n"
            "import qstrat.cli\n"
            + _BASED_RAN
            + "assert not ran()\n"
            f"code = qstrat.cli.main({argv!r})\n"
            "assert code == 0 and ran(), code\n"
        )
        assert json.loads(out)["ok"] is True

    def test_traced_cellular_job_keeps_its_based_spans(self):
        # the benchmark's tracer wraps every entry point it finds in
        # sys.modules, the lazily loaded based layer's included; decompose
        # splits without calling itself by name, so the tracer records one
        # span per climb step, also where the tilting modules of A split
        # (a decompose that returns more than one summand)
        bench = os.path.join(os.path.dirname(SRC), "bench")
        out = _fresh(
            "import io, sys, contextlib\n"
            "import qstrat.cli\n"
            "from qstrat import rep, tilting\n"
            f"sys.path.insert(0, {bench!r})\n"
            "import tracer\n"
            "selects, sizes = [], []\n"
            "real = tilting._select_summand\n"
            "tilting._select_summand = lambda *a: selects.append(1) or real(*a)\n"
            "real_decompose = rep.decompose\n"
            "rep.decompose = lambda T: sizes.append(len(parts := real_decompose(T))) or parts\n"
            "t = tracer.Tracer()\n"
            "t.install()\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert t.run_root(qstrat.cli.main, ['cellular', 'examples:gl11:0:4']) == 0\n"
            "    assert t.run_root(qstrat.cli.main, ['tilting', 'examples:A']) in (0, 1)\n"
            "split = sum(n > 1 for n in sizes)\n"
            "decomposes = sum(s[0] == 'rep.decompose' for s in t.spans)\n"
            "print((sorted({s[0] for s in t.spans}), len(selects), decomposes, len(sizes), split))\n"
        )
        layers, selects, decomposes, calls, split = ast.literal_eval(out)
        assert {"based.extract_cellular", "based.verify"} <= set(layers)
        assert selects > 0 and decomposes == selects == calls and split > 0

    def test_no_module_imports_random(self):
        # isomorphism and decomposition verdicts are deterministic
        # certificates: nothing in the package draws random numbers
        pkg = os.path.join(SRC, "qstrat")
        for name in sorted(os.listdir(pkg)):
            if not name.endswith(".py"):
                continue
            with open(os.path.join(pkg, name)) as fh:
                tree = ast.parse(fh.read())
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    mods = [a.name for a in node.names]
                elif isinstance(node, ast.ImportFrom):
                    mods = [node.module or ""]
                else:
                    continue
                assert all(m.split(".")[0] != "random" for m in mods), f"{name} imports random"

    def test_seed_option_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--seed", "1", "build", "examples:B"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_malformed_file_is_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["build", str(bad)]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["build", "{}"],
            ["verify", "examples:B", "--strat", "{}"],
            ["triangular", "examples:B", "{}"],
            ["--out", "{}", "build", "examples:B"],
        ],
        ids=["build-input", "strat-input", "triangular-input", "report-output"],
    )
    def test_directory_as_a_path_is_config_error(self, argv, tmp_path, capsys):
        # "{}" in argv stands for a directory given where a file belongs
        assert main([str(tmp_path) if a == "{}" else a for a in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        err = json.loads(captured.err)
        assert err["ok"] is False and "Is a directory" in err["error"]

    @pytest.mark.parametrize(
        "argv, content, message",
        [
            (["build", "{}"], "[]", "expected a JSON object, got list"),
            (["verify", "examples:B", "--strat", "{}"], "[]", "expected a JSON object, got list"),
            (["triangular", "examples:B", "{}"], "[]", "expected a JSON object, got list"),
            (["triangular", "examples:B", "{}"], "{}", "missing key 'gamma'"),
            (
                ["triangular", "examples:B", "{}"],
                json.dumps(
                    {"kind": "other", "gamma": ["1"], "covers": [], "lowering": [], "diagonal": [], "raising": []}
                ),
                "kind must be 'cartan' or 'triangular'",
            ),
            (["triangular", "examples:B", "{}"], _triangular(lowering=[{"0": "1"}, 5]), "not 5"),
            (["triangular", "examples:B", "{}"], _triangular(lowering=[{"6": "1"}]), "basis index '6' outside 0..5"),
            (["triangular", "examples:B", "{}"], _triangular(covers=[["2", "3"]]), "cover (2,3) uses unknown element"),
            (["triangular", "examples:B", "{}"], _triangular(covers=[["2", "1", "1"]]), "a cover is a pair"),
            (["verify", "examples:B", "--strat", "{}"], _strat(covers=[["2", "1", "1"]]), "a cover is a pair"),
            (["verify", "examples:B", "--strat", "{}"], _strat(covers=[5]), "a cover is a pair of elements, not 5"),
            (["verify", "examples:B", "--strat", "{}"], _strat(covers=[["1", "1"]]), "cover (1,1) relates an element"),
            (["verify", "examples:B", "--strat", "{}"], _strat(covers=[["1", "2"], ["2", "1"]]), "cyclic at 1, 2"),
            (["verify", "examples:B", "--strat", "{}"], _strat(rho=[["1", "1"]]), "rho must be an object"),
            (["verify", "examples:B", "--strat", "{}"], _strat(poset=[]), "poset must be an object"),
            (
                ["verify", "examples:B", "--strat", "{}"],
                _strat(poset={"elements": 5, "covers": []}),
                "poset elements must be a list, not 5",
            ),
            (["triangular", "examples:B", "{}"], _triangular(gamma=5), "gamma must be a list, not 5"),
            (["triangular", "examples:B", "{}"], _triangular(raising={"0": "1"}), "raising must be a list"),
            (
                ["triangular", "examples:B", "{}"],
                _triangular(gamma=["1", "2", "3"]),
                "weights ['1', '2', '3'] are not the vertices ['1', '2']",
            ),
            (
                ["triangular", "examples:B", "{}"],
                _triangular(gamma=["1"], covers=[]),
                "weights ['1'] are not the vertices ['1', '2']",
            ),
        ],
        ids=[
            "build-list",
            "strat-list",
            "triangular-list",
            "triangular-empty",
            "triangular-kind",
            "triangular-element-not-object",
            "triangular-index-out-of-range",
            "triangular-cover-outside-gamma",
            "triangular-cover-of-three",
            "strat-cover-of-three",
            "strat-cover-not-a-list",
            "strat-self-cover",
            "strat-cyclic-covers",
            "strat-rho-not-object",
            "strat-poset-not-object",
            "strat-elements-not-a-list",
            "triangular-gamma-not-a-list",
            "triangular-raising-not-a-list",
            "triangular-weight-not-a-vertex",
            "triangular-vertex-not-a-weight",
        ],
    )
    def test_input_file_of_the_wrong_shape_is_config_error(
        self, argv, content, message, tmp_path, capsys
    ):
        # "{}" in argv stands for the input file's path
        path = tmp_path / "input.json"
        path.write_text(content)
        assert main([str(path) if a == "{}" else a for a in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["ok"] is False and message in err["error"]

    def test_triangular_data_passes(self, tmp_path, capsys):
        path = tmp_path / "td.json"
        path.write_text(_triangular())
        code, rep = run(["triangular", "examples:B", str(path), "--emit-based"], capsys)
        assert code == 0 and rep["ok"]

    @pytest.mark.parametrize("kind", ["cartan", "triangular"])
    @pytest.mark.parametrize(
        "lowering", [[{"0": "1", "4": "1"}, {"1": "1"}], [{"0": "1"}, {"1": "1"}, {}]], ids=["mixed", "zero"]
    )
    def test_inhomogeneous_or_zero_element_gets_a_report(self, kind, lowering, tmp_path, capsys):
        # e_1 + y has no single signature and {} none at all: order
        # vanishing reads the graded components instead, and the data fail
        # other checks, with a report and exit 1
        path = tmp_path / "td.json"
        path.write_text(_triangular(kind=kind, lowering=lowering))
        code, rep = run(["triangular", "examples:B", str(path)], capsys)
        assert code == 1 and not rep["ok"]
        vanishing = [c["ok"] for c in rep["checks"] if c["name"].endswith("order_vanishing")]
        assert vanishing == [True] * (1 + (kind == "triangular"))

    def test_cartan_data_that_is_not_closed_fails_a_check(self, tmp_path, capsys):
        # the flat span of e_1, e_2, y misses y*s = y . s
        path = tmp_path / "td.json"
        path.write_text(_triangular(kind="cartan"))
        code, rep = run(["triangular", "examples:B", str(path)], capsys)
        assert code == 1 and not rep["ok"]
        checks = {c["name"]: c for c in rep["checks"]}
        assert checks["closure_flat"]["ok"] is False
        bijective = checks["multiplication_bijective"]
        assert bijective["ok"] is False and "closure_flat" in bijective["details"]["reason"]

    @pytest.mark.parametrize("field", ["Q", "Fp:1000003"])
    @pytest.mark.parametrize("emit", [[], ["--emit-based"]], ids=["checks", "emit-based"])
    def test_a_diagonal_missing_an_idempotent_fails_a_check(self, field, emit, tmp_path, capsys):
        # without e_2 the diagonal is no subalgebra of the weights: the
        # check names vertex 2, and the checks that tensor over the
        # diagonal fail with it as their reason
        path = tmp_path / "td.json"
        path.write_text(_triangular(diagonal=[{"0": "1"}, {"2": "1"}, {"3": "1"}]))
        code = main(["--field", field, "triangular", "examples:B", str(path), *emit])
        captured = capsys.readouterr()
        assert code == 1 and captured.err == ""
        rep = json.loads(captured.out)
        checks = {c["name"]: c for c in rep["checks"]}
        assert checks["diag_subalgebra"] == {
            "name": "diag_subalgebra", "ok": False, "details": {"missing_idempotents": ["2"]}
        }
        for name in ("multiplication_bijective", "flat_projective_over_diagonal", "sharp_projective_over_diagonal"):
            assert checks[name] == {"name": name, "ok": False, "details": {"reason": "diag_subalgebra failed"}}
        assert "flavor" not in rep["data"]

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda d: d["basis"].pop(), "outside 0..4"),
            (lambda d: d["mult"][0][2][0].__setitem__(0, len(d["basis"])), "basis index 6 outside 0..5"),
            (lambda d: d["idempotents"].__setitem__(next(iter(d["idempotents"])), -1), "basis index -1"),
        ],
        ids=["basis-entry-deleted", "product-index-past-basis", "negative-idempotent"],
    )
    def test_structure_constants_index_out_of_range_is_config_error(self, edit, message, tmp_path, capsys):
        dump = str(tmp_path / "dual.json")
        assert main(["ringel", "examples:B", "--dump-dual", dump]) == 0
        capsys.readouterr()
        with open(dump) as fh:
            data = json.load(fh)
        assert len(data["basis"]) == 6
        edit(data)
        with open(dump, "w") as fh:
            json.dump(data, fh)
        assert main(["build", dump]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["ok"] is False and message in err["error"]

    def test_non_prime_field_is_config_error(self, capsys):
        assert main(["--field", "Fp:4", "build", "examples:B"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["ok"] is False and "not prime" in err["error"]

    def test_large_prime_field_is_accepted_at_once(self, capsys):
        # 2^61 - 1 is prime; trial division to its square root never ended
        t0 = time.perf_counter()
        code, rep = run(["--field", "Fp:2305843009213693951", "build", "examples:point"], capsys)
        assert code == 0 and rep["ok"] and time.perf_counter() - t0 < 1

    @pytest.mark.parametrize(
        "modulus, message",
        [
            # 151 * 751 * 28351, a strong pseudoprime to the bases 2, 3, 5 and 7
            ("3215031751", "not prime"),
            # beyond the float range that trial division took a root in
            (str(10**400 + 1), "401-digit modulus is too large"),
        ],
        ids=["strong-pseudoprime", "401-digits"],
    )
    def test_bad_modulus_is_config_error(self, modulus, message, capsys):
        assert main(["--field", f"Fp:{modulus}", "build", "examples:point"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["ok"] is False and message in err["error"]

    def test_non_integer_field_is_config_error(self, capsys):
        for field in ("Fp:abc", "Fp:"):
            assert main(["--field", field, "build", "examples:B"]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            err = json.loads(captured.err)
            assert err["ok"] is False and "not an integer" in err["error"]

    def test_presentation_missing_arrows_is_config_error(self, tmp_path, capsys):
        _, rep = run(["examples", "B", "--prefix", str(tmp_path / "ex")], capsys)
        path = rep["data"]["algebra_file"]
        with open(path) as fh:
            data = json.load(fh)
        del data["arrows"]
        with open(path, "w") as fh:
            json.dump(data, fh)
        assert main(["build", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["ok"] is False and "arrows" in err["error"]

    def test_engine_key_error_is_not_config_error(self, monkeypatch):
        def broken(self):
            raise KeyError("engine fault")

        monkeypatch.setattr("qstrat.algebra.Algebra.verify", broken)
        with pytest.raises(KeyError, match="engine fault"):
            main(["build", "examples:B"])

    def test_elapsed_from_monotonic_clock(self, monkeypatch, capsys):
        ticks = iter([10.0, 12.5])
        monkeypatch.setattr("qstrat.cli.time.perf_counter", lambda: next(ticks, 12.5))
        code, rep = run(["build", "examples:B"], capsys)
        assert code == 0
        assert rep["elapsed_s"] == 2.5

    def test_build_from_written_example(self, tmp_path, capsys):
        prefix = str(tmp_path / "ex")
        code, rep = run(["examples", "B", "--prefix", prefix], capsys)
        assert code == 0
        code, rep = run(["build", rep["data"]["algebra_file"]], capsys)
        assert code == 0
        assert rep["data"]["dim"] == 6


class TestVerify:
    def test_B_signed(self, capsys):
        code, rep = run(["verify", "examples:B", "--eps", "1=+,2=-"], capsys)
        assert code == 0 and rep["ok"]
        assert rep["data"]["simple_strata"] is False
        assert rep["data"]["fully_stratified"] is True

    def test_A_failing_signs(self, capsys):
        code, rep = run(["verify", "examples:A", "--eps", "1=+,2=-"], capsys)
        assert code == 1 and not rep["ok"]
        bad = [c for c in rep["checks"] if not c["ok"]]
        assert bad and "witness" in bad[0]["details"]

    def test_strat_file_override(self, tmp_path, capsys):
        prefix = str(tmp_path / "ex")
        _, rep = run(["examples", "B", "--prefix", prefix], capsys)
        code, rep2 = run(
            ["verify", "examples:B", "--strat", rep["data"]["strat_file"]], capsys
        )
        assert code == 0

    def test_strat_file_missing_a_vertex_is_config_error(self, tmp_path, capsys):
        prefix = str(tmp_path / "ex")
        _, rep = run(["examples", "B", "--prefix", prefix], capsys)
        strat_file = rep["data"]["strat_file"]
        with open(strat_file) as fh:
            data = json.load(fh)
        del data["rho"]["2"]
        with open(strat_file, "w") as fh:
            json.dump(data, fh)
        assert main(["verify", "examples:B", "--strat", strat_file]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["ok"] is False and "exactly the vertices" in err["error"]

    @pytest.mark.parametrize("sign", ["+", "-"])
    def test_negative_label_after_eps(self, sign, capsys):
        code, rep = run(["verify", "examples:gl11:-2:1", "--eps", f"-2={sign}"], capsys)
        assert code in (0, 1)
        assert rep["data"]["signs"]["-2"] == sign

    def test_bad_eps_is_config_error(self, capsys):
        assert main(["verify", "examples:B", "--eps", "1=*"]) == 2

    def test_repeated_eps_weight_is_config_error(self, capsys):
        assert main(["verify", "examples:B", "--eps", "1=+,1=-"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "weight '1' given twice" in json.loads(captured.err)["error"]

    def test_eps_weight_outside_the_poset_is_config_error(self, capsys):
        assert main(["verify", "examples:B", "--eps", "1=+,3=-"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unknown weight '3'" in json.loads(captured.err)["error"]

    @pytest.mark.parametrize("field", ["Q", "Fp:1000003"])
    def test_structure_constants_without_strat_is_config_error(self, field, tmp_path, capsys):
        # a dumped dual carries no stratification of its own
        dual = str(tmp_path / "dual.json")
        assert main(["--field", field, "ringel", "examples:B", "--dump-dual", dual]) == 0
        capsys.readouterr()
        assert main(["--field", field, "verify", dual]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "a stratification file is required" in json.loads(captured.err)["error"]
        code, rep = run(["--field", field, "verify", dual, "--strat", dual + ".strat.json"], capsys)
        assert code == 0 and rep["field"] == field

    def test_negative_nmax_is_config_error(self, capsys):
        # below 0 every ext_orthogonality row would pass on no degree at all
        assert main(["verify", "examples:B", "--nmax", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["ok"] is False and "--nmax must be >= 0" in err["error"]

    def test_nmax_zero_checks_hom_only(self, capsys):
        code, rep = run(["verify", "examples:B", "--nmax", "0"], capsys)
        assert code == 0
        rows = [c for c in rep["checks"] if c["name"].startswith("ext_orthogonality[")]
        assert len(rows) == 4 and all(len(c["details"]["dims"]) == 1 for c in rows)


class TestFieldKey:
    """Every report names the field its job ran over."""

    def test_reports_over_two_primes_differ_in_the_field_alone(self, capsys):
        argv = ["tower", "qsl2", "--window", "2,3,4,5", "--labels", "0,1,2"]
        reports = {}
        for field in ("Fp:101", "Fp:1000003"):
            code, rep = run(["--field", field, *argv], capsys)
            assert code == 0 and rep.pop("field") == field
            rep.pop("elapsed_s")
            reports[field] = rep
        assert reports["Fp:101"] == reports["Fp:1000003"]

    def test_a_file_names_the_field_without_field_option(self, tmp_path, capsys):
        prefix = str(tmp_path / "ex")
        assert run(["--field", "Fp:7", "examples", "A", "--prefix", prefix], capsys)[1]["field"] == "Fp:7"
        code, rep = run(["build", prefix + ".algebra.json"], capsys)
        assert code == 0 and rep["field"] == "Fp:7"

    def test_examples_without_a_name_lists_them(self, capsys):
        from qstrat.examples import EXAMPLE_NAMES

        code, rep = run(["examples"], capsys)
        assert code == 0 and rep["ok"] and rep["checks"] == []
        assert rep["data"] == {"available": EXAMPLE_NAMES} and rep["field"] == "Q"


class TestPipelines:
    def test_tilting_report(self, capsys):
        code, rep = run(["tilting", "examples:B", "--eps", "1=+,2=-"], capsys)
        assert code == 0
        assert rep["data"]["tilting_rigid"] is False
        t1 = next(c for c in rep["checks"] if c["name"] == "tilting[1]")
        assert t1["details"]["dims"] == {"1": 2, "2": 4}

    def test_tilting_A_is_not_rigid(self, capsys):
        # A's all-minus tilting module at 2 has no certified standard flag
        code, rep = run(["tilting", "examples:A"], capsys)
        assert code == 0
        assert rep["data"]["tilting_rigid"] is False
        assert rep["data"]["tilting_rigid_by_label"] == {"1": True, "2": False}

    @pytest.mark.parametrize("eps, peeled", [("1=+,2=-", ["2", "1"]), ("1=-,2=-", ["2", "1", "1"])])
    def test_tilting_failed_certificate_is_reported(self, eps, peeled, capsys):
        # A is not stratified at these signs: the tilting module at 2 has
        # no signed standard flag, which is a failed check, not a crash
        code, rep = run(["tilting", "examples:A", "--eps", eps], capsys)
        assert code == 1 and rep["ok"] is False
        checks = {c["name"]: c for c in rep["checks"]}
        assert checks["tilting[1]"]["ok"] is True
        t2 = checks["tilting[2]"]
        assert t2["ok"] is False
        assert t2["details"]["error"] == "tilting module at 2 failed flag certification"
        assert t2["details"]["flavor"] == "standard"
        assert t2["details"]["witness"] == {"sections": peeled, "stuck_dims": {"1": 0, "2": 1}}

    def test_ringel_report_and_dump(self, tmp_path, capsys):
        dump = str(tmp_path / "dual.json")
        code, rep = run(
            ["ringel", "examples:B", "--eps", "1=+,2=-", "--dump-dual", dump], capsys
        )
        assert code == 0 and rep["ok"]
        assert rep["data"]["dual_dim"] == 14
        dual = json.load(open(dump))
        assert len(dual["basis"]) == 14

    def test_cellular(self, capsys):
        code, rep = run(["cellular", "examples:B", "--eps", "1=+,2=-"], capsys)
        assert code == 0 and rep["ok"]
        assert rep["data"]["flavor"] == "eQH"

    @pytest.mark.parametrize("field", ["Q", "Fp:1000003"])
    def test_cellular_rigid_requirement(self, field, capsys):
        # B is not tilting-rigid: its tilting module at 1 has no standard
        # flag at all-plus signs, the first failing certificate
        code, rep = run(
            ["--field", field, "cellular", "examples:B", "--eps", "1=+,2=-", "--flavor", "BS"], capsys
        )
        assert code == 1 and not rep["ok"]
        assert rep["checks"] == [
            {
                "name": "tilting[1]",
                "ok": False,
                "details": {
                    "error": "tilting module at 1 failed flag certification",
                    "flavor": "standard",
                    "signs": {"1": "+", "2": "+"},
                    "witness": {"sections": [], "stuck_dims": {"1": 2, "2": 4}},
                },
            }
        ]

    @pytest.mark.parametrize("field", ["Q", "Fp:1000003"])
    @pytest.mark.parametrize(
        "opts, signs, peeled",
        [
            (["--flavor", "BS"], {"1": "-", "2": "-"}, ["2", "1", "1"]),
            (["--flavor", "FQH"], {"1": "-", "2": "-"}, ["2", "1", "1"]),
            (["--eps", "1=+,2=-"], {"1": "+", "2": "-"}, ["2", "1"]),
        ],
    )
    def test_cellular_failed_tilting_flag_is_reported(self, field, opts, signs, peeled, capsys):
        # the symmetric flavors read the flags at all-minus signs, where A
        # is not stratified; so does the signed flavor at 1=+,2=-
        code, rep = run(["--field", field, "cellular", "examples:A", *opts], capsys)
        assert code == 1 and rep["ok"] is False
        assert rep["checks"] == [
            {
                "name": "tilting[2]",
                "ok": False,
                "details": {
                    "error": "tilting module at 2 failed flag certification",
                    "flavor": "standard",
                    "signs": signs,
                    "witness": {"sections": peeled, "stuck_dims": {"1": 0, "2": 1}},
                },
            }
        ]

    @pytest.mark.parametrize("field", ["Q", "Fp:1000003"])
    def test_ringel_failed_tilting_flag_is_reported(self, field, capsys):
        args = ["examples:A", "--eps", "1=+,2=-"]
        code, rep = run(["--field", field, "ringel", *args], capsys)
        assert code == 1 and rep["ok"] is False
        _, tilting = run(["--field", field, "tilting", *args], capsys)
        failed = [c for c in tilting["checks"] if not c["ok"]]
        assert [c["name"] for c in failed] == ["tilting[2]"]
        assert rep["checks"] == failed

    def test_tower(self, capsys):
        code, rep = run(["tower", "semiinf", "--window", "2,3"], capsys)
        assert code == 0 and rep["ok"]

    @pytest.mark.parametrize(
        "window, labels, message",
        [
            ("2,3", "-1,0", "outside window"),
            ("a,b", "0", "bad --window"),
            ("3,2", "0", "increasing"),
            ("3,3", "0", "strictly increasing"),
            ("2,3,3", "0", "strictly increasing"),
            ("1_0,11", "0", "bad --window"),
            ("+2,3", "0", "bad --window"),
            ("2, 3", "0", "bad --window"),
            ("2,3.0", "0", "bad --window"),
            ("2,,3", "0", "bad --window"),
            ("2,3", "", "bad --labels"),
        ],
        ids=[
            "label-outside-window", "non-integer-window", "decreasing-windows",
            "repeated-window", "repeated-last-window",
            "underscore", "plus-sign", "space", "decimal", "empty", "empty-labels",
        ],
    )
    def test_tower_bad_input_is_config_error(self, window, labels, message, capsys):
        assert main(["tower", "semiinf", "--window", window, "--labels", labels]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["ok"] is False and message in err["error"]

    def test_negative_labels_after_labels(self, capsys):
        code, rep = run(["tower", "gl11:-N:N", "--window", "1", "--labels", "-1,0"], capsys)
        assert code in (0, 1)
        assert set(rep["data"]["windows"]["1"]["tilting_dims"]) == {"-1", "0"}

    def test_out_file(self, tmp_path, capsys):
        out = str(tmp_path / "report.json")
        code = main(["--out", out, "build", "examples:B"])
        assert code == 0
        assert json.load(open(out))["data"]["dim"] == 6

    def test_deterministic_reports(self, capsys):
        _, rep1 = run(["verify", "examples:B", "--eps", "1=-,2=-"], capsys)
        _, rep2 = run(["verify", "examples:B", "--eps", "1=-,2=-"], capsys)
        rep1.pop("elapsed_s"), rep2.pop("elapsed_s")
        rep1["data"].pop("elapsed_s", None)
        assert rep1 == rep2

    def test_ringel_round_trip_through_files(self, tmp_path, capsys):
        # the dumped dual, fed back through the verify command with its
        # dumped reversed-and-negated stratification, passes
        dump = str(tmp_path / "dual.json")
        code, rep = run(
            ["ringel", "examples:B", "--eps", "1=+,2=-", "--dump-dual", dump], capsys
        )
        assert code == 0
        strat_path = rep["data"]["dual_strat_written_to"]
        code2, rep2 = run(["verify", dump, "--strat", strat_path], capsys)
        assert code2 == 0 and rep2["ok"]


def _input_error(argv, capsys):
    """The JSON error of a command that must exit 2 with nothing on stdout."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    return json.loads(captured.err)


class TestDegreeBound:
    """--degree-bound reaches every presented input: examples: names,
    family files, presentation files and tower windows.  A
    structure-constants file has no presentation and refuses it."""

    def test_too_small_a_bound_fails_as_the_presentation_file_does(self, tmp_path, capsys):
        prefix = str(tmp_path / "s3")
        assert main(["examples", "semiinf:3", "--prefix", prefix]) == 0
        capsys.readouterr()
        named = tmp_path / "named.json"
        named.write_text(json.dumps({"family": {"name": "semiinf"}, "window": [0, 3]}))
        want = _input_error(["--degree-bound", "2", "build", f"{prefix}.algebra.json"], capsys)
        assert "normal word of length 2 survives" in want["error"]
        for argv in (
            ["build", "examples:semiinf:3"],
            ["build", str(named)],
            ["tower", "semiinf", "--window", "2,3"],
        ):
            assert _input_error(["--degree-bound", "2", *argv], capsys) == want

    @pytest.mark.parametrize("flag", [[], ["--degree-bound", "5"]], ids=["no-flag", "bound-5"])
    def test_the_templates_own_bound_builds_the_window(self, flag, capsys):
        code, rep = run([*flag, "build", "examples:semiinf:3"], capsys)
        assert code == 0 and rep["data"]["dim"] == 13

    def test_small_example_honours_the_bound(self, capsys):
        err = _input_error(["--degree-bound", "2", "build", "examples:B"], capsys)
        assert "normal word of length 2 survives" in err["error"]
        code, rep = run(["--degree-bound", "3", "build", "examples:B"], capsys)
        assert code == 0 and rep["data"]["dim"] == 6

    def test_written_example_carries_the_bound(self, tmp_path, capsys):
        prefix = str(tmp_path / "B")
        assert main(["--degree-bound", "9", "examples", "B", "--prefix", prefix]) == 0
        with open(f"{prefix}.algebra.json") as fh:
            assert json.load(fh)["degree_bound"] == 9

    def test_structure_constants_file_refuses_a_bound(self, tmp_path, capsys):
        dump = str(tmp_path / "dual.json")
        assert main(["ringel", "examples:B", "--dump-dual", dump]) == 0
        capsys.readouterr()
        err = _input_error(["--degree-bound", "4", "build", dump], capsys)
        assert "structure-constants file" in err["error"]
        assert main(["build", dump]) == 0

    @pytest.mark.parametrize("bound", [-3, 0])
    def test_a_bound_below_one_is_refused(self, bound, tmp_path, capsys):
        prefix = str(tmp_path / "B")
        assert main(["examples", "B", "--prefix", prefix]) == 0
        capsys.readouterr()
        pres_file = f"{prefix}.algebra.json"
        with open(pres_file) as fh:
            data = json.load(fh)
        own = tmp_path / "own.json"
        own.write_text(json.dumps(dict(data, degree_bound=bound)))
        family = tmp_path / "family.json"
        family.write_text(json.dumps({"family": {"name": "semiinf"}, "window": [0, 3]}))
        template = tmp_path / "template.json"
        fam = {"field": "Q", "arrows": [{"name": "x{i}", "src": "{i}", "tgt": "{i+1}"}], "relations": []}
        template.write_text(json.dumps({"family": dict(fam, degree_bound=bound), "window": [0, 2]}))
        want = {"error": f"degree_bound must be at least 1, got {bound}", "ok": False}
        for argv in (
            ["--degree-bound", str(bound), "build", "examples:B"],
            ["--degree-bound", str(bound), "build", pres_file],
            ["build", str(own)],
            ["--degree-bound", str(bound), "build", str(family)],
            ["build", str(template)],
        ):
            assert _input_error(argv, capsys) == want, argv

    @pytest.mark.parametrize("name", ["kxk", "point"])
    def test_arrowless_examples_build_at_bound_one(self, name, capsys):
        code, rep = run(["--degree-bound", "1", "build", f"examples:{name}"], capsys)
        assert code == 0 and rep["data"]["dim"] == {"kxk": 2, "point": 1}[name]


# one vertex with a loop x and x^2 + 1 = 0, and its one-label stratification
_LOOP_PRESENTATION = {"vertices": ["1"], "arrows": [{"name": "x", "src": "1", "tgt": "1"}], "degree_bound": 4}
_ONE_LABEL = {"poset": {"elements": ["1"], "covers": []}, "rho": {"1": "1"}, "epsilon": {"1": "+"}}


def _loop_file(tmp_path, field, coeff):
    """The loop presentation over field, with coeff the coefficient of x^2."""
    relation = [{"coeff": coeff, "path": ["x", "x"]}, {"coeff": "1", "path": []}]
    path = tmp_path / "loop.json"
    path.write_text(json.dumps(dict(_LOOP_PRESENTATION, field=field, relations=[relation])))
    return str(path)


class TestNotSplit:
    """A ground field that does not split the algebra, or an endomorphism
    algebra met while splitting a module, is bad input: exit 2."""

    @pytest.mark.parametrize("command", ["verify", "tilting"])
    def test_a_field_extension_is_config_error(self, command, tmp_path, capsys):
        # Q[x]/(x^2 + 1) is a field of dimension 2 over Q
        strat = tmp_path / "strat.json"
        strat.write_text(json.dumps(_ONE_LABEL))
        err = _input_error([command, _loop_file(tmp_path, "Q", "1"), "--strat", str(strat)], capsys)
        assert err["ok"] is False and "not pointed split" in err["error"]

    def test_an_unsplit_eigenvalue_is_config_error(self, monkeypatch, capsys):
        def unsplit(coeffs, field):
            raise R.NotSplit(f"a factor of degree 2 has no root in {field.name}")

        monkeypatch.setattr(R, "roots", unsplit)
        err = _input_error(["tilting", "examples:A"], capsys)
        assert err == {"error": "a factor of degree 2 has no root in Q", "ok": False}


class TestMalformedInteger:
    """An integer in an input file is a JSON integer or a string -?[0-9]+;
    any other value, in any file kind, is bad input: exit 2.  This
    includes what Python's int reads or truncates: a superscript digit,
    non-ASCII digits, a decimal and a boolean."""

    BAD = pytest.mark.parametrize("bad", ["\u00b2", "\u0664", 4.9, True], ids=["superscript", "arabic-indic", "decimal", "bool"])

    @BAD
    def test_a_presentation_degree_bound(self, bad, tmp_path, capsys):
        path = Path(_loop_file(tmp_path, "Q", "1"))
        path.write_text(json.dumps(dict(json.loads(path.read_text()), degree_bound=bad)))
        err = _input_error(["build", str(path)], capsys)
        assert err == {"error": f"degree_bound must be an integer, not {bad!r}", "ok": False}

    @BAD
    def test_a_family_template_degree_bound(self, bad, tmp_path, capsys):
        family = json.loads((Path(__file__).parent / "loop_ladder.json").read_text())["family"]
        path = tmp_path / "family.json"
        path.write_text(json.dumps({"family": dict(family, degree_bound=bad), "window": [0, 2]}))
        err = _input_error(["build", str(path)], capsys)
        assert err == {"error": f"degree_bound must be an integer, not {bad!r}", "ok": False}

    @BAD
    def test_a_structure_constants_index(self, bad, tmp_path, capsys):
        dump = tmp_path / "dual.json"
        assert main(["ringel", "examples:B", "--dump-dual", str(dump)]) == 0
        capsys.readouterr()
        data = json.loads(dump.read_text())
        data["mult"][0][2][0][0] = bad
        dump.write_text(json.dumps(data))
        err = _input_error(["build", str(dump)], capsys)
        assert err == {"error": f"basis index {bad!r} outside 0..5", "ok": False}

    @BAD
    def test_a_triangular_basis_index(self, bad, tmp_path, capsys):
        key = bad if isinstance(bad, str) else json.dumps(bad)  # an object key is a string
        path = tmp_path / "td.json"
        path.write_text(_triangular(lowering=[{"0": "1"}, {"1": "1"}, {key: "1"}]))
        err = _input_error(["triangular", "examples:B", str(path)], capsys)
        assert err == {"error": f"{path}: basis index {key!r} outside 0..5", "ok": False}

    def test_a_field_modulus(self, capsys):
        err = _input_error(["--field", "Fp:\u0661\u0660\u0661", "build", "examples:B"], capsys)
        assert err == {"error": "the modulus of 'Fp:\u0661\u0660\u0661' is not an integer", "ok": False}

    @pytest.mark.parametrize(
        "argv", [["--degree-bound", "\u0664", "build", "examples:B"], ["verify", "examples:B", "--nmax", "\u0661"]]
    )
    def test_an_integer_option(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2 and capsys.readouterr().out == ""


class TestMalformedCoefficient:
    """A coefficient string that is no rational literal -?[0-9]+(/[0-9]+)?,
    or a JSON boolean, in any input file, is bad input over Q and F_p:
    exit 2.  This includes what Python's Fraction would read: underscores,
    surrounding spaces, non-ASCII digits, decimals, exponents and a plus
    sign; and true and false, which Python reads as the integers 1 and 0."""

    FIELDS = pytest.mark.parametrize("field", ["Q", "Fp:1000003"])
    BAD = pytest.mark.parametrize("bad", ["1/0", "abc", "1_0", " 3 ", "\u0661\u0662", "1.5", "1e3", "+5", True, False])

    @staticmethod
    def _error(bad, field):
        if isinstance(bad, bool):
            return {"error": f"cannot coerce {bad!r} into {'Q' if field == 'Q' else 'F_1000003'}", "ok": False}
        return {"error": f"{bad!r} is not a rational number", "ok": False}

    def _refused(self, path, bad, field, capsys):
        assert _input_error(["build", path], capsys) == self._error(bad, field)

    @FIELDS
    @BAD
    def test_in_a_presentation_file(self, field, bad, tmp_path, capsys):
        self._refused(_loop_file(tmp_path, field, bad), bad, field, capsys)

    @FIELDS
    @BAD
    def test_in_a_family_template(self, field, bad, tmp_path, capsys):
        family = json.loads((Path(__file__).parent / "loop_ladder.json").read_text())["family"]
        family["relations"][0][0]["coeff"] = bad
        path = tmp_path / "family.json"
        path.write_text(json.dumps({"family": dict(family, field=field), "window": [0, 2]}))
        self._refused(str(path), bad, field, capsys)

    @FIELDS
    @BAD
    def test_in_a_structure_constants_file(self, field, bad, tmp_path, capsys):
        dump = tmp_path / "dual.json"
        assert main(["--field", field, "ringel", "examples:B", "--dump-dual", str(dump)]) == 0
        capsys.readouterr()
        data = json.loads(dump.read_text())
        data["mult"][0][2][0][1] = bad
        dump.write_text(json.dumps(data))
        self._refused(str(dump), bad, field, capsys)

    @FIELDS
    @BAD
    def test_in_triangular_data(self, field, bad, tmp_path, capsys):
        path = tmp_path / "td.json"
        path.write_text(_triangular(lowering=[{"0": "1"}, {"1": "1"}, {"4": bad}]))
        err = _input_error(["--field", field, "triangular", "examples:B", str(path)], capsys)
        assert err == self._error(bad, field)
