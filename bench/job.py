"""Run one qstrat CLI job in this fresh interpreter and print one JSON line.

    python3 bench/job.py [--trace] -- <qstrat arguments...>
    python3 bench/job.py --import-only

The line holds the perf_counter time at which `qstrat.cli` finished
importing (the parent subtracts its spawn time to get set-up time), the
latency of `qstrat.cli.main(argv)`, its exit code, the captured JSON
report, this process's peak RSS and, with --trace, the spans of the call.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

CHECKOUT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(CHECKOUT, "src"))


def main():
    flags = sys.argv[1 : sys.argv.index("--")] if "--" in sys.argv else sys.argv[1:]
    argv = sys.argv[sys.argv.index("--") + 1 :] if "--" in sys.argv else []
    import qstrat.cli as cli

    t_imported = time.perf_counter()
    if "--import-only" in flags:
        print(json.dumps({"t_imported": t_imported, "cli": cli.__file__}))
        return
    tracer = None
    if "--trace" in flags:
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()
        tracer.install()
    out = io.StringIO()
    rc, error = None, None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            rc = tracer.run_root(cli.main, argv) if tracer else cli.main(argv)
    except SystemExit as e:  # argparse rejects the arguments
        rc = e.code
    except Exception:  # a raised job is a failed job; keep the traceback
        error = traceback.format_exc(limit=-8)
    latency = time.perf_counter() - t0
    record = {
        "t_imported": t_imported,
        "latency_s": latency,
        "rc": rc,
        "error": error,
        "report": out.getvalue(),
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer:
        record["spans"] = tracer.spans
    sys.stdout.write(json.dumps(record) + "\n")


if __name__ == "__main__":
    main()
