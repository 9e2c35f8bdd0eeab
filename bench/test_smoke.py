"""Smoke test of the benchmark: a tiny job list, one run of each mode.

    python3 -m pytest -q bench/test_smoke.py

Checks that every metric is printed by name with its unit, that the
answer check rejects a corrupted answer, and that the benchmark refuses
to run where the program's source is missing.
"""

import io
import json
import os
import shutil
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)

import answers  # noqa: E402
import jobs as J  # noqa: E402
import run  # noqa: E402


def tiny_jobs():
    """A job of each of the two cheapest shapes of seed 1's dual list;
    both are in the reference."""
    deck = J.job_list("dual-q", 1, 1)
    return [
        next(j for j in deck if j.command == "cellular" and len(j.labels) == 4),
        next(j for j in deck if j.command == "ringel" and j.algebra == "semiinf:2"),
    ]


def printed_metrics(text):
    """{name: unit} of the metric lines of a run's output."""
    out = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) >= 3 and not line.startswith(("workload", "spans")):
            out[parts[0]] = parts[2]
    return out


def test_untraced_run_prints_every_end_to_end_metric():
    buf = io.StringIO()
    result = run.run("dual-q", 1, 1, False, job_list=tiny_jobs(), out=buf)
    printed = printed_metrics(buf.getvalue())
    assert result["correct"] and result["attempted"] == 2 and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END
    for name, unit in run.END_TO_END.items():
        assert printed[name] == unit
        assert result["metrics"][name]["value"] > 0
    assert printed["fail_frac"] == "ratio"
    json.dumps(result)


def test_traced_run_prints_every_per_layer_metric():
    buf = io.StringIO()
    result = run.run("dual-fp", 1, 1, True, job_list=tiny_jobs()[:1], out=buf)
    printed = printed_metrics(buf.getvalue())
    assert result["correct"]
    units = {k: v[0] for k, v in run.PER_LAYER.items()}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    for name, unit in units.items():
        assert printed[name] == unit
    assert result["metrics"]["exactla.rref.calls"]["value"] > 0
    # build_algebra is called through the names qstrat.examples imported;
    # wrapping only the defining module would count none.
    assert result["metrics"]["algebra.build_algebra.calls"]["value"] > 0
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 0


def test_answer_check_rejects_a_corrupted_answer():
    job = tiny_jobs()[1]
    with open(answers.REFERENCE_PATH) as fh:
        reference = json.load(fh)
    good = reference["answers"][job.key]
    reference["answers"][job.key] = dict(good, dual_dim=good["dual_dim"] + 1)
    rec = run.run_job(job, None, answers.Checker(reference), time.perf_counter() + 120)
    assert rec.failed and "dual_dim" in rec.error
    # Off the reference, the invariants catch a corrupted answer too.
    bad = dict(good, checks=good["checks"] - 1)
    assert answers.invariant_errors(job, good, reference["dims"]) == []
    assert answers.invariant_errors(job, bad, reference["dims"])


def test_refuses_to_run_without_the_program():
    bare = os.path.join(run.CHECKOUT, ".bench_trace", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, os.path.join(bare, "bench"), ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.CHECKOUT, "BENCHMARK.json"), bare)
    try:
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "dual-q", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""
