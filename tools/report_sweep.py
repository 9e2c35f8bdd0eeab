"""Run a fixed list of qstrat CLI jobs in-process and print, per job, its
argv, its exit code, the SHA-256 of its JSON report and the SHA-256 of each
file it dumped.  A job of several commands joined by "&&" runs them in
turn in one scratch directory, so a later command reads what an earlier
one wrote, and prints an exit code and report hash per command.  The
report is hashed without `elapsed_s` and without the paths of the dumped
files, so two runs of the same tree print the same lines, and without
`field`, which is checked to name the command's `--field` instead, so a
job run over Q and over F_p prints the same line for the same answer.

The sweep imports qstrat from the `src/` directory beside this file, so a
copy of it measures the tree it is copied into.  To check that a change
keeps every answer, run it in both trees and compare:

    python3 tools/report_sweep.py > new.txt
    cp tools/report_sweep.py ../parent/tools/
    cp tests/loop_ladder.json ../parent/tests/
    python3 ../parent/tools/report_sweep.py > old.txt
    diff old.txt new.txt
"""

import contextlib
import hashlib
import itertools
import io
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from qstrat import cli  # noqa: E402
from qstrat.examples import get_example  # noqa: E402

FIELDS = ("Q", "Fp:1000003")
EXAMPLES = (
    "A", "B", "kxk", "point", "semiinf:3", "semiinf:4", "qsl2:3", "qsl2:5", "qsl2:6",
    "gl11:-1:2", "gl11:-2:3", "dzig:-1:2",
)
# small primes: A and semiinf:3 at or below their dimension, where the
# radical is refused, and B just above its dimension 6
SMALL_PRIMES = (("Fp:11", "A"), ("Fp:11", "B"), ("Fp:13", "semiinf:3"))
# longer towers, run once each: a semiinf window is the corner of the
# next, and the other windows share lower quotients with the next
TOWERS = (
    ["--field", "Q", "tower", "semiinf", "--window", "2,3,4,5,6,7", "--labels", "0,1,2"],
    ["--field", "Q", "tower", "gl11:-N:N", "--window", "1,2,3", "--labels", "0,1"],
    ["--field", "Q", "tower", "dzig:-N:N", "--window", "1,2,3", "--labels", "0,1"],
    ["--field", "Fp:1000003", "tower", "qsl2", "--window", "2,3,4,5", "--labels", "0,1,2"],
)
# report keys that hold dump paths
DUMPED = ("dual_written_to", "dual_strat_written_to", "algebra_file", "strat_file")
# the triangular jobs, of the two commands that read the based layer
# (cellular jobs run per example).  They read triangular decompositions
# whose elements map basis indices to coefficients, written to the job's
# scratch directory and not hashed.  DIR/td.json is that of examples:B, by
# basis index (e_1, e_2, s, t, y, y*s); its diagonal is not semisimple, so
# it gets flavor FQH
TD_JSON = json.dumps({
    "kind": "triangular",
    "gamma": ["1", "2"],
    "covers": [["2", "1"]],
    "lowering": [{"0": "1"}, {"1": "1"}, {"4": "1"}],
    "diagonal": [{"0": "1"}, {"1": "1"}, {"2": "1"}, {"3": "1"}],
    "raising": [{"0": "1"}, {"1": "1"}],
})
# DIR/td_semiinf.json is that of examples:semiinf:3, by basis index (e_0,
# e_1, e_2, e_3, y0, y1, y2, x0, x1, x2, ...): the idempotents, with the
# y{i} lowering and the x{i} raising; its diagonal is semisimple, so it
# gets flavor QH
_IDEMPOTENTS = [{str(k): "1"} for k in range(4)]
TD_SEMIINF_JSON = json.dumps({
    "kind": "triangular",
    "gamma": ["0", "1", "2", "3"],
    "covers": [["1", "0"], ["2", "1"], ["3", "2"]],
    "lowering": _IDEMPOTENTS + [{str(k): "1"} for k in (4, 5, 6)],
    "diagonal": _IDEMPOTENTS,
    "raising": _IDEMPOTENTS + [{str(k): "1"} for k in (7, 8, 9)],
})
# DIR/td_cartan.json is B's derived Cartan data, entering through the
# Cartan checks: flat = minus . circ is all of B and sharp = circ . plus is
# the diagonal e_1, e_2, s, t.  DIR/td_missing.json is td.json with e_2 left
# out of the diagonal, which fails diag_subalgebra, naming vertex 2
_TD = json.loads(TD_JSON)
TD_CARTAN_JSON = json.dumps(
    dict(_TD, kind="cartan", lowering=[{str(k): "1"} for k in range(6)], raising=[{str(k): "1"} for k in range(4)])
)
TD_MISSING_JSON = json.dumps(dict(_TD, diagonal=[d for d in _TD["diagonal"] if d != {"1": "1"}]))
TRIANGULAR = [["--field", "Q", "triangular", "examples:B", "DIR/td.json", "--emit-based"]] + [
    ["--field", field, "triangular", "examples:semiinf:3", "DIR/td_semiinf.json", "--emit-based"] for field in FIELDS
] + [
    ["--field", field, "triangular", "examples:B", f"DIR/{name}", "--emit-based"]
    for name in ("td_cartan.json", "td_missing.json")
    for field in FIELDS
]
# family files, written to the job's scratch directory as td.json is: the
# commuting-ladder template on a lower-set window, and built-in families
# named on their own windows (gl11 on [0, 3] is no examples: name)
FAMILY_JSON = json.dumps({
    "family": {
        "field": "Q",
        "arrows": [
            {"name": "x{i}", "src": "{i}", "tgt": "{i+1}"},
            {"name": "y{i}", "src": "{i+1}", "tgt": "{i}"},
        ],
        "relations": [
            [{"coeff": "1", "path": ["x{i+1}", "x{i}"]}],
            [{"coeff": "1", "path": ["y{i}", "y{i+1}"]}],
            [{"coeff": "1", "path": ["x{i}", "y{i}"]}, {"coeff": "-1", "path": ["y{i+1}", "x{i+1}"]}],
        ],
        "order": "natural",
        "truncation": "lower",
        "degree_bound": 6,
    },
    "window": [0, 5],
})
INPUTS = {
    "td.json": TD_JSON,
    "td_semiinf.json": TD_SEMIINF_JSON,
    "td_cartan.json": TD_CARTAN_JSON,
    "td_missing.json": TD_MISSING_JSON,
    "family.json": FAMILY_JSON,
    "named.json": json.dumps({"family": {"name": "gl11"}, "window": [-1, 2]}),
    "named_window.json": json.dumps({"family": {"name": "gl11"}, "window": [0, 3]}),
}
# the loop ladder, the monomial ladder tensored with k[z]/(z^2), whose
# stratum algebras are not semisimple, so that the signs select different
# modules: the family file under tests/ on small windows over each field
# (a template family file names its own field); input name -> (field, hi)
LOOP_FILE = os.path.join(ROOT, "tests", "loop_ladder.json")
LOOP_WINDOWS = (2, 3)
LOOP_INPUTS = {f"loop_{field.split(':')[0]}_{hi}.json": (field, hi) for field in FIELDS for hi in LOOP_WINDOWS}
# builds of wide windows, the files `examples` writes, the family files,
# and a tower whose windows cross from one-digit to two-digit labels
# the benchmark decks' build windows (semiinf:59/99, qsl2:59, dzig:-30:29
# and dzig:-70:69) and a few more
BUILDS = (
    "semiinf:12", "semiinf:59", "semiinf:99", "semiinf:100", "qsl2:59", "gl11:-3:9", "dzig:-3:4",
    "dzig:-30:29", "dzig:-70:69", "dzig:0:139",
)
WRITTEN = ("semiinf:3", "qsl2:3", "gl11:-1:2", "dzig:-1:2")
# verify reads back what ringel --dump-dual and examples --prefix write: a
# dumped dual with its stratification, over each field, for these examples
# and the loop ladder on [0, 2], and the pair of files of examples B
READ_BACK = ("B", "semiinf:3", "qsl2:3")
FAMILY_JOBS = [
    ["--field", "Q", command, f"DIR/{name}"]
    for name in ("family.json", "named.json", "named_window.json")
    for command in ("build", "verify")
] + [["--field", "Q", "tower", "semiinf", "--window", "9,10,11"]]


def _signs(name, pattern):
    """Signs along the example's poset elements, cycling through pattern."""
    _, spec = get_example(name)
    return ",".join(f"{e}={pattern[i % len(pattern)]}" for i, e in enumerate(spec.poset.elements))


def _example_jobs(name):
    ex = f"examples:{name}"
    alternating = f"--eps={_signs(name, '+-')}"
    minus = f"--eps={_signs(name, '-')}"
    return [
        ["ringel", ex, "--dump-dual", "DIR/dual.json"],
        ["ringel", ex, alternating],
        ["ringel", ex, minus],
        ["cellular", ex, "--dump-structure", "DIR/structure.json"],
        # where a tilting flag fails, cellular reports it (A at 2=-); the
        # dumped structures hash the signed end maps and, for BS, the
        # symmetric maps under mixed signs
        ["cellular", ex, alternating, "--dump-structure", "DIR/structure.json"],
        ["cellular", ex, minus, "--dump-structure", "DIR/structure.json"],
        ["cellular", ex, "--flavor", "BS", "--dump-structure", "DIR/structure.json"],
        ["cellular", ex, "--flavor", "BS", alternating, "--dump-structure", "DIR/structure.json"],
        ["cellular", ex, "--flavor", "BS", minus, "--dump-structure", "DIR/structure.json"],
        ["tilting", ex],
        # rigidity read off the job's own tilting modules at mixed signs
        ["tilting", ex, alternating],
        ["tilting", ex, minus],
        ["verify", ex, "--witnesses"],
        ["verify", ex, "--witnesses", alternating],
        # Ext^1 reads each signed standard's resolution at length 2, and
        # Ext^0 (and Ext^1) then read it shorter
        ["verify", ex, "--nmax", "0", alternating],
        ["verify", ex, "--nmax", "1"],
        # every sign given as +: the fully stratified check's plus-sign
        # flags are the job's own
        ["verify", ex, f"--eps={_signs(name, '+')}"],
    ]


def _loop_jobs(name, field, hi):
    """verify, tilting, ringel and cellular (auto and BS) on a loop ladder
    window at the plus, alternating and all-minus signs, with dumps."""
    loop = f"DIR/{name}"
    signs = [[]] + [["--eps=" + ",".join(f"{i}={p[i % len(p)]}" for i in range(hi + 1))] for p in ("+-", "-")]
    return [
        ["--field", field, *argv, *eps]
        for eps in signs
        for argv in (
            ["verify", loop, "--witnesses"],
            ["tilting", loop],
            ["ringel", loop, "--dump-dual", "DIR/dual.json"],
            ["cellular", loop, "--dump-structure", "DIR/structure.json"],
            ["cellular", loop, "--flavor", "BS", "--dump-structure", "DIR/structure.json"],
        )
    ]


def _read_back_jobs(field):
    """Commands that write input files, each followed by a verify job that
    reads them."""
    loop = f"DIR/loop_{field.split(':')[0]}_2.json"
    verify = ["--field", field, "verify", "DIR/dual.json", "--strat", "DIR/dual.json.strat.json"]
    dumps = [["--field", field, "ringel", source, "--dump-dual", "DIR/dual.json", "&&", *verify]
             for source in (*(f"examples:{name}" for name in READ_BACK), loop)]
    written = ["--field", field, "verify", "DIR/x.algebra.json", "--strat", "DIR/x.strat.json"]
    return dumps + [["--field", field, "examples", "B", "--prefix", "DIR/x", "&&", *written]]


def jobs():
    """The fixed job list; DIR stands for the job's scratch directory."""
    per_field = [argv for name in EXAMPLES for argv in _example_jobs(name)]
    per_field += [
        ["tower", "semiinf", "--window", "2,3,4", "--labels", "0,1"],
        ["tower", "qsl2", "--window", "2,3,4", "--labels", "0,1"],
    ]
    per_field += [["build", f"examples:{name}"] for name in BUILDS]
    per_field += [["examples", name, "--prefix", "DIR/x"] for name in WRITTEN]
    small = [["--field", field, *argv] for field, name in SMALL_PRIMES for argv in _example_jobs(name)]
    return (
        [["--field", field, *argv] for field in FIELDS for argv in per_field]
        + small + list(TOWERS) + FAMILY_JOBS
        + [argv for name, (field, hi) in LOOP_INPUTS.items() for argv in _loop_jobs(name, field, hi)]
        + TRIANGULAR
        + [argv for field in FIELDS for argv in _read_back_jobs(field)]
    )


def input_text(name):
    """The text of the input file DIR/name."""
    if name in INPUTS:
        return INPUTS[name]
    field, hi = LOOP_INPUTS[name]
    with open(LOOP_FILE) as fh:
        data = json.load(fh)
    data["family"]["field"], data["window"] = field, [0, hi]
    return json.dumps(data)


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def run_job(argv):
    """Lines for one job: argv, exit code and report hash per command, then
    one line per dumped file."""
    with tempfile.TemporaryDirectory() as tmp:
        inputs = {name for name in (*INPUTS, *LOOP_INPUTS) if f"DIR/{name}" in argv}
        for name in inputs:
            with open(os.path.join(tmp, name), "w") as fh:
                fh.write(input_text(name))
        lines = [" ".join(argv)]
        for join, command in itertools.groupby(argv, lambda a: a == "&&"):
            if not join:
                lines.append(_run_command([a.replace("DIR", tmp) for a in command], tmp))
        for name in sorted(set(os.listdir(tmp)) - inputs):
            with open(os.path.join(tmp, name), "rb") as fh:
                lines.append(f"  file {name} {_sha(fh.read())}")
    return lines


def _run_command(real, tmp):
    """The exit code and report hash line of one command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(real)
    if out.getvalue().strip():
        report = json.loads(out.getvalue())
        report.pop("elapsed_s", None)
        field = report.pop("field", None)
        if field != real[real.index("--field") + 1]:
            raise AssertionError(f"{' '.join(real)}: the report names the field {field!r}")
        for key in DUMPED:
            report.get("data", {}).pop(key, None)
        digest = _sha(json.dumps(report, sort_keys=True).encode())
    else:
        digest = "stderr:" + _sha(err.getvalue().replace(tmp, "DIR").encode())
    return f"  exit {code} report {digest}"


def sweep(job_list=None):
    """Run the jobs (all of jobs() by default) and return the output lines."""
    return [line for argv in (jobs() if job_list is None else job_list) for line in run_job(argv)]


def main():
    for argv in jobs():
        print("\n".join(run_job(argv)), flush=True)


if __name__ == "__main__":
    main()
