"""Seeded job lists for the benchmark workloads.

A workload is a deck of job shapes, fixed per workload; the seed draws
each job's sign vector, the position of the gl11/dzig windows, and the
order of the deck.  A run plays whole passes through the deck, so every
seed runs the same shapes the same number of times and runs of different
seeds and commits compare like with like.  `dual-q` and `dual-fp` draw
from the same stream, so they share their job list for a given seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

FP_FIELD = "Fp:1000003"

WORKLOADS = ("dual-q", "dual-fp", "build-verify")

# Seconds one pass through each deck took over Q at the commit that
# defined the benchmark (2-core x86-64 KVM guest, CPython 3.11).
# `passes()` turns the requested run length into whole passes with these,
# so a faster program finishes the same work sooner instead of doing more
# of it.  dual-fp plays as many passes as dual-q: the two run identical
# job lists, and their gap is the cost of rational arithmetic.
PASS_SECONDS = {"dual-q": 30.0, "dual-fp": 30.0, "build-verify": 22.0}

# Decks: (command, family, size, copies).  The size is the vertex count
# of the window, or the top window of a tower job (windows 2, 3, ..., size).
# No job may dominate a run: ringel stops at semiinf:3, since semiinf:4
# takes 6-8 s over Q (more than twice any other job), semiinf:5 24 s and
# semiinf:6 78 s; qsl2 builds stop at 60 vertices (100 take 3.5 s).
#
# Each deck has three bands, by cost over Q: seven cheap jobs, seven
# copies of one sign-free job, and the dearer jobs above them.  The median
# and the tail rank (the highest with ten jobs beyond it) fall in the
# middle of the seven copies, so they read the time of one job whose input
# no seed changes, not whichever of several jobs of different cost and
# drawn signs happens to land on that rank.  Over Q the dual deck's bands
# are 0.3-0.7 s, 0.9-1.2 s (tower 2..5) and 1.4-5 s; build-verify's are
# 0.4-0.8 s, 0.9 s (build semiinf:99) and 1.0-4 s.
DUAL_DECK = (
    ("cellular", "gl11", 4, 1), ("cellular", "gl11", 5, 1),
    ("ringel", "semiinf", 3, 1), ("ringel", "qsl2", 4, 1), ("ringel", "gl11", 4, 2),
    ("tower", "semiinf", 4, 1),
    ("tower", "semiinf", 5, 7),
    ("ringel", "gl11", 5, 1), ("cellular", "gl11", 6, 1), ("ringel", "qsl2", 5, 1),
    ("ringel", "semiinf", 4, 1), ("ringel", "qsl2", 6, 1), ("ringel", "gl11", 6, 1),
    ("ringel", "qsl2", 7, 1), ("tower", "semiinf", 6, 1),
)
BUILD_VERIFY_DECK = (
    ("build", "semiinf", 60, 1), ("build", "dzig", 60, 1), ("build", "qsl2", 60, 1),
    ("verify", "semiinf", 6, 1), ("verify", "qsl2", 6, 1), ("verify", "gl11", 6, 1), ("verify", "dzig", 6, 1),
    ("build", "semiinf", 100, 7),
    ("verify", "semiinf", 8, 1), ("verify", "qsl2", 8, 1), ("verify", "gl11", 8, 1), ("verify", "dzig", 8, 1),
    ("verify", "semiinf", 9, 1), ("build", "dzig", 140, 1), ("verify", "dzig", 11, 1),
)
WINDOW_LO = (-3, 0)  # range of the lowest label of a drawn gl11/dzig window


@dataclass(frozen=True)
class Job:
    """One CLI invocation.  `key` names the job independently of the
    field, so Q and F_p runs of a job share reference answers."""

    command: str
    algebra: str  # example name, or the family name for tower jobs
    args: tuple = ()
    labels: tuple = ()  # the window's labels, for the invariants

    @property
    def key(self):
        return " ".join((self.command, self.algebra) + self.args)

    def argv(self, field=None):
        target = self.algebra if self.command == "tower" else f"examples:{self.algebra}"
        head = ["--field", field] if field else []
        return head + [self.command, target, *self.args]


def _window(family, vertices, rng):
    """Example name and labels of a window with the given vertex count."""
    if family in ("semiinf", "qsl2"):
        return f"{family}:{vertices - 1}", tuple(str(i) for i in range(vertices))
    lo = rng.randint(*WINDOW_LO)
    hi = lo + vertices - 1
    return f"{family}:{lo}:{hi}", tuple(str(i) for i in range(lo, hi + 1))


def _signed(command, family, vertices, rng):
    # `--eps=` keeps argparse from reading a negative label such as
    # `-2=+` as an option: `--eps -2=+` exits 2.
    name, labels = _window(family, vertices, rng)
    eps = ",".join(f"{b}={rng.choice('+-')}" for b in labels)
    return Job(command, name, (f"--eps={eps}",), labels)


def _job(command, family, size, rng):
    if command == "tower":
        window = ",".join(str(w) for w in range(2, size + 1))
        return Job("tower", family, ("--window", window, "--labels", "0,1"))
    if command == "build":
        # Sign-free, so the same window for every seed.
        lo = -(size // 2)
        name = f"dzig:{lo}:{lo + size - 1}" if family == "dzig" else f"{family}:{size - 1}"
        return Job("build", name)
    return _signed(command, family, size, rng)


def _deal(deck, rng):
    jobs = [_job(c, f, v, rng) for c, f, v, copies in deck for _ in range(copies)]
    rng.shuffle(jobs)
    return jobs


def passes(workload, seconds):
    """Whole passes through the deck that fill about `seconds`."""
    return max(1, round(seconds / PASS_SECONDS[workload]))


def job_list(workload, seed, n_passes):
    """The first `n_passes` passes of the workload's seeded job stream."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(seed)
    deck = BUILD_VERIFY_DECK if workload == "build-verify" else DUAL_DECK
    jobs = []
    for _ in range(n_passes):
        jobs += _deal(deck, rng)
    return jobs


def all_windows():
    """Every example name a signed job can run on."""
    names = set()
    for command, family, size, _ in DUAL_DECK + BUILD_VERIFY_DECK:
        if command in ("tower", "build"):
            continue
        if family in ("semiinf", "qsl2"):
            names.add(f"{family}:{size - 1}")
        else:
            for lo in range(WINDOW_LO[0], WINDOW_LO[1] + 1):
                names.add(f"{family}:{lo}:{lo + size - 1}")
    return sorted(names)


def field_of(workload):
    return FP_FIELD if workload == "dual-fp" else None
