"""Record the reference answers that run.py checks jobs against.

    python3 bench/record_reference.py --seeds 1-10

Runs every job of the given seeds' job lists once over Q, and the dual
workloads' jobs once more over F_p, requiring the same answers from both
fields and no invariant violations.  Writes bench/reference.json.  Only
rerun it when the job lists change, never to make a failing run pass.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import answers
import jobs as J
import run


def algebra_dims():
    from qstrat.examples import get_example

    return {name: get_example(name)[0].dim for name in J.all_windows()}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    args = p.parse_args(argv)
    lo, _, hi = args.seeds.partition("-")
    seeds = list(range(int(lo), int(hi or lo) + 1))
    with open(os.path.join(run.CHECKOUT, "BENCHMARK.json")) as fh:
        seconds = json.load(fh)["run_seconds"]

    sys.path.insert(0, os.path.join(run.CHECKOUT, "src"))
    dims = algebra_dims()
    checker = answers.Checker(reference={"answers": {}, "dims": dims})
    run.warm_up()
    recorded, problems = {}, []
    for seed in seeds:
        t0 = time.perf_counter()
        todo = [(job, True) for job in J.job_list("dual-q", seed, J.passes("dual-q", seconds))]
        todo += [(job, False) for job in J.job_list("build-verify", seed, J.passes("build-verify", seconds))]
        for job, both_fields in todo:
            if job.key in recorded:
                continue
            rec = run.run_job(job, None, checker, time.perf_counter() + 600)
            if rec.failed:
                problems.append(f"{job.key} [Q]: {rec.error}")
                continue
            if both_fields:
                fp = run.run_job(job, J.FP_FIELD, checker, time.perf_counter() + 600)
                if fp.failed or fp.answers != rec.answers:
                    problems.append(f"{job.key}: F_p answers differ from Q ({fp.error or 'mismatch'})")
                    continue
            recorded[job.key] = rec.answers
        print(f"seed {seed}: {len(recorded)} jobs recorded, {time.perf_counter() - t0:.0f} s", flush=True)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    # One answer per line keeps the file small and its diffs readable.
    lines = [f"{json.dumps(k)}: {json.dumps(v, sort_keys=True, separators=(',', ':'))}" for k, v in sorted(recorded.items())]
    with open(answers.REFERENCE_PATH, "w") as fh:
        fh.write(f'{{"seeds": {json.dumps(seeds)}, "run_seconds": {json.dumps(seconds)},\n')
        fh.write(f' "dims": {json.dumps(dims, sort_keys=True)},\n "answers": {{\n  ')
        fh.write(",\n  ".join(lines))
        fh.write("\n }}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
