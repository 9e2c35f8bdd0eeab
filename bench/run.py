"""Closed-loop benchmark of qstrat CLI jobs.

    python3 bench/run.py --workload dual-q --seed 1 --seconds 30 --trace 0

One client runs the workload's seeded job list one job at a time.  Each
job runs in a fresh interpreter (`bench/job.py`), as a command-line user
runs it, so nothing one job caches can speed up the next; the client
starts no threads and never has more than one job process alive.

With --trace 0 the run prints the end-to-end metrics, their times scaled
to a reference host speed (see calibration.py); with --trace 1 it
runs every job traced, and every other job once more untraced, and
prints the per-layer metrics and the tracing overhead.  Either way every job's answers are
checked (see answers.py), and the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
Run from the root of a checkout; the program is imported from src/.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import statistics
import subprocess
import sys
import time
import zlib
from collections import Counter

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)

import answers  # noqa: E402
import calibration  # noqa: E402
import jobs as J  # noqa: E402
import tracer  # noqa: E402

CHECKOUT = os.path.dirname(BENCH)
JOB_SCRIPT = os.path.join(BENCH, "job.py")
TRACE_DIR = os.path.join(CHECKOUT, ".bench_trace")
RUN_DEADLINE_S = 170.0  # a run must end within 180 s
TAIL_BEYOND = 10  # the tail percentile keeps at least this many jobs above it

END_TO_END = {
    "jobs_per_s": "1/s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics: name -> (unit, layer, statistic).
PER_LAYER = {}
for _layer, _stats in [
    ("exactla.rref", ("calls", "cells", "self_s")),
    ("algebra.build_algebra", ("calls", "self_s")),
    ("algebra.verify", ("self_s",)),
    ("algebra.truncate_lower", ("calls", "repeat_ratio", "self_s")),
    ("algebra.truncate_upper", ("calls", "self_s")),
    ("rep.hom_space", ("calls", "unknowns", "self_s")),
    ("rep.ext", ("calls", "self_s")),
    ("rep.isomorphism", ("calls", "found_ratio", "self_s")),
    ("rep.decompose", ("calls", "self_s")),
    ("rep.endomorphism_algebra", ("self_s",)),
    ("strat.standard_family", ("calls", "repeat_ratio", "self_s")),
    ("strat.certify_flag", ("calls", "ok_ratio", "self_s")),
    ("strat.check", ("self_s",)),
    ("tilting.tilting_module", ("calls", "self_s")),
    ("tilting.verify_ringel", ("self_s",)),
    ("tilting.truncation_tower", ("self_s",)),
    ("based.extract_cellular", ("self_s",)),
    ("based.verify", ("self_s",)),
    (tracer.ROOT, ("self_s",)),
]:
    for _stat in _stats:
        _unit = "s" if _stat == "self_s" else "ratio" if _stat.endswith("_ratio") else "count"
        PER_LAYER[f"{_layer}.{_stat}"] = (_unit, _layer, _stat)
PER_LAYER["trace.overhead_ratio"] = ("ratio", None, None)

# The 0/1 span field averaged for each ratio.
_RATIO_FIELD = {"repeat_ratio": "repeat", "found_ratio": "found", "ok_ratio": "ok"}


class JobRecord:
    """The outcome of one job process."""

    def __init__(self, job, wall_s, out, error=None):
        self.job = job
        self.wall_s = wall_s
        self.out = out or {}
        self.error = error
        self.answers = None
        self.totals = None  # traced jobs: per-layer sums, see layer_totals
        self.spans_z = None  # traced jobs: the spans, compressed JSON
        self.scale = None  # untraced jobs: REF_S over the host's import time around the job

    @property
    def failed(self):
        return self.error is not None

    @property
    def latency_s(self):
        return self.out["latency_s"]


def spawn(flags, argv, deadline):
    """Run job.py once; returns (wall seconds, spawn time, parsed line or
    None, error or None)."""
    remaining = deadline - time.perf_counter()
    if remaining <= 0:
        return 0.0, None, None, "run deadline passed before the job started"
    cmd = [sys.executable, JOB_SCRIPT, *flags, "--", *argv]
    t_spawn = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=CHECKOUT, capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        return time.perf_counter() - t_spawn, t_spawn, None, "killed at the run deadline"
    wall = time.perf_counter() - t_spawn
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return wall, t_spawn, None, f"job process exited {proc.returncode}: {proc.stderr.strip()[-400:]}"
    return wall, t_spawn, json.loads(lines[-1]), None


def run_job(job, field, checker, deadline, trace=False):
    """Run one job and judge it.  A job fails if it raises, exits with
    code 2 (or anything but 0/1), or its answers do not check out."""
    flags = ["--trace"] if trace else []
    wall, t_spawn, out, error = spawn(flags, job.argv(field), deadline)
    rec = JobRecord(job, wall, out, error)
    if error:
        return rec
    rec.out["setup_s"] = out["t_imported"] - t_spawn
    if out["error"]:
        rec.error = "raised: " + out["error"].strip().splitlines()[-1]
        return rec
    if out["rc"] not in (0, 1):
        rec.error = f"exit code {out['rc']}"
        return rec
    try:
        report = json.loads(out["report"])
    except json.JSONDecodeError:
        rec.error = "no JSON report"
        return rec
    if (out["rc"] == 0) != bool(report["ok"]):
        rec.error = f"exit code {out['rc']} with verdict ok={report['ok']}"
        return rec
    try:
        rec.answers = answers.extract(job.command, report)
    except (KeyError, TypeError) as e:
        rec.error = f"report lacks an answer: {e!r}"
        return rec
    errs = checker.errors(job, rec.answers)
    if errs:
        rec.error = "; ".join(errs)
    return rec


def pin_to_one_cpu():
    """Keep this process and every process it starts on one CPU, so the
    host-speed calibration and the jobs run where each other run."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def warm_up():
    """One untimed start, so that compiling .pyc files in a fresh checkout
    does not count toward set-up time."""
    _, _, out, error = spawn(["--import-only"], [], time.perf_counter() + 120)
    if error:
        raise RuntimeError(f"qstrat does not import: {error}")
    want = os.path.join(CHECKOUT, "src", "qstrat")
    if os.path.dirname(os.path.abspath(out["cli"])) != want:
        raise RuntimeError(f"imported qstrat from {out['cli']}, not from {want}")


def tail(latencies):
    """The highest latency percentile with at least TAIL_BEYOND jobs
    beyond it: (value, percentile, rank, count)."""
    xs = sorted(latencies)
    rank = max(1, len(xs) - TAIL_BEYOND)
    return xs[rank - 1], 100.0 * rank / len(xs), rank, len(xs)


def end_to_end(records, wall):
    """End-to-end metrics, every time scaled to the reference host speed
    job by job (see calibration.py); notes give the measured values."""
    done = [r for r in records if not r.failed]
    lat = [r.latency_s * r.scale for r in done] or [0.0]
    tail_s, pct, rank, n = tail(lat)
    # The run's wall time scales by the jobs' scales, weighted by job time.
    run_scale = sum(r.wall_s * r.scale for r in done) / sum(r.wall_s for r in done) if done else 1.0
    metrics = {
        "jobs_per_s": len(done) / (wall * run_scale),
        "job_p50_s": statistics.median(lat),
        "job_tail_s": tail_s,
        "setup_s": statistics.median(r.out["setup_s"] * r.scale for r in done) if done else 0.0,
        "peak_rss_mb": max((r.out["maxrss_kb"] for r in done), default=0) / 1024.0,
    }
    raw_lat = [r.latency_s for r in done] or [0.0]
    notes = {
        "jobs_per_s": f"measured {len(done) / wall:.6f}",
        "job_p50_s": f"measured {statistics.median(raw_lat):.6f}",
        "job_tail_s": f"measured {tail(raw_lat)[0]:.6f}; p{pct:.1f} of {n} jobs: rank {rank}, {n - rank} jobs beyond it",
        "setup_s": f"measured {statistics.median(r.out['setup_s'] for r in done) if done else 0.0:.6f}",
        "calibration": f"host speed {run_scale:.4f} of the reference, weighted by job time",
    }
    return metrics, notes


def layer_totals(spans):
    """Calls, self seconds and summed extra fields per layer of one job."""
    calls, selfs, fields = Counter(), Counter(), Counter()
    for span, self_s in zip(spans, tracer.self_times(spans)):
        layer, extra = span[0], span[4]
        calls[layer] += 1
        selfs[layer] += self_s
        for k, v in (extra or {}).items():
            fields[(layer, k)] += v
    return calls, selfs, fields


def per_layer(traced, pairs):
    """Per-layer metrics summed over the traced jobs of a run; pairs
    holds (traced, untraced) wall times of the twinned jobs."""
    calls, selfs, fields = Counter(), Counter(), Counter()
    for rec in traced:
        c, s, f = rec.totals
        calls.update(c)
        selfs.update(s)
        fields.update(f)
    metrics = {}
    for name, (_, layer, stat) in PER_LAYER.items():
        if layer is None:
            continue
        n = calls[layer]
        if stat == "calls":
            metrics[name] = n
        elif stat == "self_s":
            metrics[name] = selfs[layer]
        elif stat in _RATIO_FIELD:
            metrics[name] = fields[(layer, _RATIO_FIELD[stat])] / n if n else 0.0
        else:  # a count summed from the spans: cells, unknowns
            metrics[name] = fields[(layer, stat)]
    metrics["trace.overhead_ratio"] = sum(t for t, _ in pairs) / sum(u for _, u in pairs)
    return metrics


def take_spans(rec):
    """Sum a traced job's spans per layer and keep the spans compressed
    until the run ends.  Returns an error if the job's summed self time
    exceeds its latency."""
    spans = rec.out.pop("spans")
    rec.totals = layer_totals(spans)
    rec.spans_z = zlib.compress(json.dumps(spans).encode(), 1)
    total = sum(rec.totals[1].values())
    if total > rec.latency_s:
        return f"summed self time {total:.6f} s exceeds the job latency {rec.latency_s:.6f} s"
    return None


def write_spans(path, traced):
    """Write every span of the run, one JSON object per line."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with gzip.open(path, "wt", compresslevel=1) as fh:
        for job_id, rec in enumerate(traced):
            for layer, start, end, parent, extra in json.loads(zlib.decompress(rec.spans_z)):
                row = {"job": job_id, "name": layer, "start": start, "end": end, "parent": parent}
                row.update(extra or {})
                fh.write(json.dumps(row) + "\n")


def run(workload, seed, seconds, trace, job_list=None, checker=None, out=sys.stdout):
    """Run one benchmark run and return its result object."""
    field = J.field_of(workload)
    if job_list is None:
        job_list = J.job_list(workload, seed, J.passes(workload, seconds))
    checker = checker or answers.Checker()
    warm_up()
    deadline = time.perf_counter() + RUN_DEADLINE_S
    records, pairs, samples = [], [], []
    t_calibrating = 0.0

    def calibrate():
        nonlocal t_calibrating
        t0 = time.perf_counter()
        samples.append([calibration.import_s() for _ in range(calibration.SAMPLES_PER_JOB)])
        t_calibrating += time.perf_counter() - t0

    t_start = time.perf_counter()
    for i, job in enumerate(job_list):
        if not trace:
            calibrate()
        rec = run_job(job, field, checker, deadline, trace=trace)
        records.append(rec)
        if trace and not rec.failed:
            rec.error = take_spans(rec)
        # Every other traced job also runs untraced, for the tracing
        # overhead; twinning all of them could push a slow run past the
        # deadline.
        if trace and not rec.failed and i % 2 == 0:
            twin = run_job(job, field, checker, deadline)
            if twin.failed:
                rec.error = "untraced twin: " + twin.error
            else:
                pairs.append((rec.wall_s, twin.wall_s))
    if not trace:
        calibrate()
        for i, rec in enumerate(records):
            rec.scale = calibration.scale(samples[i] + samples[i + 1])
    wall = time.perf_counter() - t_start - t_calibrating

    failed = [r for r in records if r.failed]
    for r in failed:
        print(f"FAILED {r.job.key} [{field or 'Q'}]: {r.error}", file=sys.stderr)
    print(f"workload {workload}  seed {seed}  field {field or 'Q'}  jobs {len(records)}  "
          f"wall {wall:.2f} s  {'traced' if trace else 'untraced'}", file=out)
    if trace:
        metrics = per_layer([r for r in records if not r.failed], pairs) if not failed else {}
        units = {k: v[0] for k, v in PER_LAYER.items()}
        notes = {}
    else:
        metrics, notes = end_to_end(records, wall)
        units = END_TO_END
        print(notes.pop("calibration"), file=out)
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:36s} {value:14.6f} {units[name]}{note}", file=out)
    print(f"{'fail_frac':36s} {len(failed) / len(records):14.6f} ratio  "
          f"({len(failed)} of {len(records)} jobs failed)", file=out)
    if trace and not failed:
        path = os.path.join(TRACE_DIR, f"spans-{workload}-seed{seed}.jsonl.gz")
        write_spans(path, records)
        print(f"spans written to {os.path.relpath(path, CHECKOUT)}", file=out)
    return {
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=J.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    pin_to_one_cpu()
    if not os.path.isfile(os.path.join(CHECKOUT, "src", "qstrat", "cli.py")):
        print(f"no qstrat source under {os.path.join(CHECKOUT, 'src')}; run from a full checkout", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
