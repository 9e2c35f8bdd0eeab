"""Host speed, measured next to the jobs of a run.

The host this benchmark was built on is shared.  Its speed changes by
up to 1.9x, in phases from under a second to minutes: two copies of one
job in the same run can differ that much.  Before each job and after the
last, the run times a fresh interpreter importing a fixed set of
standard-library modules: the same kind of work as a job (unmarshalling
code, running module bodies, allocating objects), so a slow phase
stretches it as it stretches the jobs.  Each job's times are then scaled
by REF_S over the mean of the import times just before and just after
it, and read as on a host of fixed speed.  The import runs no qstrat
code, so no change to the program can move it.
"""

import subprocess
import sys

# About the import time in the host's fast phases at the commit that
# defined the benchmark (2-core x86-64 KVM guest, CPython 3.11: 0.062 s
# fast, 0.09-0.1 s slow).  Any fixed value serves; it only sets the units.
REF_S = 0.07
SAMPLES_PER_JOB = 2  # import samples taken before each job

_IMPORT = """import time
t0 = time.perf_counter()
import argparse, asyncio, csv, dataclasses, decimal, email.mime.multipart, fractions, http.client
import inspect, json, logging, pydoc, statistics, tarfile, typing, unittest, urllib.request
import xml.dom.minidom, zipfile
print(time.perf_counter() - t0)
"""


def import_s():
    """Seconds a fresh, isolated interpreter takes to import the modules."""
    proc = subprocess.run([sys.executable, "-I", "-c", _IMPORT], capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout)


def scale(samples):
    """The factor that turns times measured next to these import samples
    into times on the reference host.  The mean, not the median: a slow
    phase stretches a job by the share of its time it covers."""
    return REF_S / (sum(samples) / len(samples))
