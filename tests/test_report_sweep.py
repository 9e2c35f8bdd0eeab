"""tools/report_sweep.py: the report hashes two trees are compared by."""

import contextlib
import copy
import importlib.util
import io
import json
import re
import tempfile
from itertools import zip_longest
from pathlib import Path

import pytest

from oracles import replay_flag_certificates

TOOL = Path(__file__).resolve().parent.parent / "tools" / "report_sweep.py"
LOOP = json.loads((Path(__file__).resolve().parent / "loop_ladder.json").read_text())["family"]


def _tool():
    spec = importlib.util.spec_from_file_location("report_sweep", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_sweep_prints_exit_codes_and_stable_hashes():
    tool = _tool()
    jobs = [
        ["--field", "Q", "ringel", "examples:B", "--dump-dual", "DIR/dual.json"],
        ["--field", "Fp:1000003", "verify", "examples:A", "--witnesses", "--eps=1=+,2=-"],
    ]
    lines = tool.sweep(jobs)
    sha = "[0-9a-f]{64}"
    assert lines[0] == " ".join(jobs[0])
    assert re.fullmatch(f"  exit 0 report {sha}", lines[1])
    assert re.fullmatch(f"  file dual.json {sha}", lines[2])
    assert re.fullmatch(f"  file dual.json.strat.json {sha}", lines[3])
    assert lines[4] == " ".join(jobs[1])
    assert re.fullmatch(f"  exit 1 report {sha}", lines[5])
    assert len(lines) == 6
    # elapsed_s and the scratch paths are left out, so a second run agrees
    assert tool.sweep(jobs) == lines
    jobs = tool.jobs()
    assert len(jobs) == 596
    # ringel, tilting and cellular at the default, alternating and
    # all-minus signs, over both fields; the signed cellular jobs, auto and
    # BS, dump their structures
    dump = ["--dump-structure", "DIR/structure.json"]
    for field in ("Q", "Fp:1000003"):
        for eps in ("--eps=1=+,2=-", "--eps=1=-,2=-"):
            assert ["--field", field, "ringel", "examples:B", eps] in jobs
            assert ["--field", field, "tilting", "examples:B", eps] in jobs
            assert ["--field", field, "cellular", "examples:B", eps, *dump] in jobs
            assert ["--field", field, "cellular", "examples:B", "--flavor", "BS", eps, *dump] in jobs
    # the benchmark decks' build windows, over both fields
    for name in ("semiinf:59", "semiinf:99", "qsl2:59", "dzig:-30:29", "dzig:-70:69"):
        for field in ("Q", "Fp:1000003"):
            assert ["--field", field, "build", f"examples:{name}"] in jobs
    # the loop ladder on [0, 2] and [0, 3], over both fields, at the plus,
    # alternating and all-minus signs: five commands each, with dumps
    loop = [argv for argv in jobs if "&&" not in argv and any(a.startswith("DIR/loop_") for a in argv)]
    assert len(loop) == 60
    dumps = {"ringel": ["--dump-dual", "DIR/dual.json"], "cellular": dump}
    commands = (["verify", "--witnesses"], ["tilting"], ["ringel"], ["cellular"], ["cellular", "--flavor", "BS"])
    for field in ("Q", "Fp:1000003"):
        for hi in (2, 3):
            path = f"DIR/loop_{field.split(':')[0]}_{hi}.json"
            assert json.loads(tool.input_text(path[4:])) == {"family": dict(LOOP, field=field), "window": [0, hi]}
            labels = range(hi + 1)
            alternating = "--eps=" + ",".join(f"{i}={'+-'[i % 2]}" for i in labels)
            minus = "--eps=" + ",".join(f"{i}=-" for i in labels)
            for eps in ([], [alternating], [minus]):
                for command, *opts in commands:
                    assert ["--field", field, command, path, *opts, *dumps.get(command, []), *eps] in loop
    # both commands that load the based layer, triangular from an input
    # file: examples:B gets flavor FQH, and semiinf:3, over both fields, QH;
    # B's derived Cartan data pass the Cartan checks alone, over both
    # fields, and a diagonal without e_2 fails them with exit 1
    assert jobs[-17:-10] == [
        ["--field", "Q", "triangular", "examples:B", "DIR/td.json", "--emit-based"],
        ["--field", "Q", "triangular", "examples:semiinf:3", "DIR/td_semiinf.json", "--emit-based"],
        ["--field", "Fp:1000003", "triangular", "examples:semiinf:3", "DIR/td_semiinf.json", "--emit-based"],
        ["--field", "Q", "triangular", "examples:B", "DIR/td_cartan.json", "--emit-based"],
        ["--field", "Fp:1000003", "triangular", "examples:B", "DIR/td_cartan.json", "--emit-based"],
        ["--field", "Q", "triangular", "examples:B", "DIR/td_missing.json", "--emit-based"],
        ["--field", "Fp:1000003", "triangular", "examples:B", "DIR/td_missing.json", "--emit-based"],
    ]
    assert json.loads(tool.input_text("td_cartan.json"))["kind"] == "cartan"
    assert {"1": "1"} not in json.loads(tool.input_text("td_missing.json"))["diagonal"]
    lines = tool.sweep(jobs[-17:-10])
    assert [line.split(" report ")[0] for line in lines[1::2]] == ["  exit 0"] * 5 + ["  exit 1"] * 2
    # verify reads back each dumped dual with its stratification, and the
    # files examples B writes, over both fields: one exit line per command
    verify_dual = ["verify", "DIR/dual.json", "--strat", "DIR/dual.json.strat.json"]
    for field in ("Q", "Fp:1000003"):
        dumping = ["ringel", "--dump-dual", "DIR/dual.json"]
        for source in ("examples:B", "examples:semiinf:3", "examples:qsl2:3", f"DIR/loop_{field.split(':')[0]}_2.json"):
            ringel = ["--field", field, dumping[0], source, *dumping[1:]]
            assert [*ringel, "&&", "--field", field, *verify_dual] in jobs[-10:]
        written = ["verify", "DIR/x.algebra.json", "--strat", "DIR/x.strat.json"]
        assert ["--field", field, "examples", "B", "--prefix", "DIR/x", "&&", "--field", field, *written] in jobs[-10:]
    lines = tool.sweep(jobs[-1:])
    assert [line.split(" report ")[0] for line in lines[1:3]] == ["  exit 0", "  exit 0"]
    assert [line.split()[1] for line in lines[3:]] == ["x.algebra.json", "x.strat.json"]
    # the verify jobs that read a resolution shorter than Ext^1 grew it,
    # and one whose signs are all given as +
    for argv in (
        ["verify", "examples:B", "--nmax", "0", "--eps=1=+,2=-"],
        ["verify", "examples:B", "--nmax", "1"],
        ["verify", "examples:B", "--eps=1=+,2=+"],
    ):
        assert ["--field", "Q", *argv] in jobs


EXPECTED = Path(__file__).resolve().parent / "sweep_expected.txt"


def _by_job(lines):
    """(job line, its exit, report and file lines) pairs."""
    jobs = []
    for line in lines:
        if line.startswith("  "):
            jobs[-1][1].append(line)
        else:
            jobs.append((line, []))
    return jobs


def test_sweep_gives_the_committed_answers():
    """The whole job list, run in this process after whatever ran before it,
    prints tests/sweep_expected.txt: memos shared across jobs and tests
    change work, never answers.  Regenerate the file with
    `python3 tools/report_sweep.py > tests/sweep_expected.txt` only for a
    change meant to move answers."""
    want = _by_job(EXPECTED.read_text().splitlines())
    got = _by_job(_tool().sweep())
    assert [job for job, _ in got] == [job for job, _ in want]
    moved = []
    for (job, w), (_, g) in zip(want, got):
        lines = [f"  expected {a.strip()}\n  got      {b.strip()}" for a, b in zip_longest(w, g, fillvalue="") if a != b]
        moved += [job, *lines] if lines else []
    assert not moved, "jobs moved:\n" + "\n".join(moved)


def _exit_lines(lines):
    return [a for a in lines if a.startswith("  exit")]


def test_q_and_fp_jobs_give_equal_reports():
    """Every job the sweep runs over both Q and F_1000003 (the && read-back
    jobs aside) prints the same exit and report lines over both: the report
    is hashed without `field`, which the sweep checks names the job's
    --field.  Dumped files are not compared: they hold coefficients in the
    job's own field.  Every small-prime job (F_11, F_13 and F_5, each
    above the vertex spaces of its algebras) answers, with exit 0 or 1,
    and prints its Q twin's lines too."""
    tool = _tool()
    jobs = dict(_by_job(EXPECTED.read_text().splitlines()))
    pairs = 0
    for job, lines in jobs.items():
        twin = jobs.get(job.replace("--field Q ", "--field Fp:1000003 ", 1))
        if job.startswith("--field Q ") and "&&" not in job and twin is not None:
            pairs += 1
            assert _exit_lines(lines) == _exit_lines(twin), job
    assert pairs == 223
    fields = tuple(f"--field {field} " for field, _ in tool.SMALL_PRIMES)
    small = {job: lines for job, lines in jobs.items() if job.startswith(fields)}
    for job, lines in small.items():
        assert lines[0].split()[1] in ("0", "1"), job
        assert _exit_lines(lines) == _exit_lines(jobs["--field Q " + job.split(" ", 2)[2]]), job
    assert len(small) == 68


def test_sweep_refuses_a_report_naming_another_field(monkeypatch):
    tool = _tool()
    monkeypatch.setattr(tool.cli, "main", lambda argv: print(json.dumps({"ok": True, "field": "Q"})) or 0)
    assert tool.sweep([["--field", "Q", "build", "examples:B"]])[1].startswith("  exit 0 report ")
    with pytest.raises(AssertionError, match="names the field 'Q'"):
        tool.sweep([["--field", "Fp:1000003", "build", "examples:B"]])


def _witness_reports(tool):
    """(algebra, spec, report) of each of the sweep's `verify --witnesses`
    jobs that answers, run in this process."""
    out = []
    for argv in tool.jobs():
        if "verify" not in argv or "--witnesses" not in argv:
            continue
        with tempfile.TemporaryDirectory() as tmp:
            for name in (*tool.INPUTS, *tool.LOOP_INPUTS):
                if f"DIR/{name}" in argv:
                    Path(tmp, name).write_text(tool.input_text(name))
            real = [a.replace("DIR", tmp) for a in argv]
            text = io.StringIO()
            with contextlib.redirect_stdout(text), contextlib.redirect_stderr(io.StringIO()):
                code = tool.cli.main(real)
            if code != 2:
                out.append((*tool.cli._load_inputs(tool.cli.make_parser().parse_args(real)), json.loads(text.getvalue())))
    return out


def _tampered(report, name, change):
    """The report with only the check name, its certificate changed."""
    check = copy.deepcopy(next(c for c in report["checks"] if c["name"] == name))
    change(check["details"]["certificate"])
    return dict(report, checks=[check])


def _drop_a_column(cert):
    level = cert["witnesses"][0]
    v = next(v for v, rows in level.items() if rows and rows[0])
    level[v] = [row[:-1] for row in level[v]]


def _zero_an_entry(cert):
    level = cert["witnesses"][0]
    rows = next(rows for rows in level.values() if rows and rows[0])
    next(row for row in rows if row[0] != "0")[0] = "0"


def test_witnesses_replay_from_their_json():
    """Every projective_flag/injective_flag certificate the sweep's
    `verify --witnesses` jobs embed, over Q, F_1000003, F_11, F_13 and F_5,
    replays from its JSON alone (tests/oracles.py's replay_flag_certificates).
    Each fails with its sections reversed (where two labels differ), with
    a column dropped from its bottom span, or with the first nonzero entry
    of that span's first column set to 0."""
    runs = _witness_reports(_tool())
    assert len(runs) == 68
    replayed = two_labels = 0
    for algebra, spec, report in runs:
        verdicts = replay_flag_certificates(algebra, spec, report)
        assert verdicts and all(verdicts.values()), report["checks"]
        replayed += len(verdicts)
        for name in verdicts:
            cert = next(c for c in report["checks"] if c["name"] == name)["details"]["certificate"]
            if len(set(cert["sections"])) > 1:
                two_labels += 1
                assert replay_flag_certificates(algebra, spec, _tampered(report, name, lambda c: c["sections"].reverse())) == {name: False}
            for change in (_drop_a_column, _zero_an_entry):
                assert replay_flag_certificates(algebra, spec, _tampered(report, name, change)) == {name: False}, (name, change)
    assert (replayed, two_labels) == (499, 352)
