"""Spans around the public entry points of each qstrat layer.

The wrappers live in the benchmark, not in `src/qstrat`: `install()`
replaces each entry point with a timing wrapper wherever the name is
looked up (the defining module, every module that imported it by name,
or the class for methods).  Spans are kept in memory, in `Tracer.spans`,
as [layer, start, end, parent index, extra counts].

The program is single-threaded, so spans nest on one stack and a span's
self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import sys
import time

# (layer, module, attribute).  Several entry points may share a layer.
ENTRY_POINTS = [
    ("exactla.rref", "qstrat.exactla", "Matrix.rref"),
    ("algebra.build_algebra", "qstrat.algebra", "build_algebra"),
    ("algebra.verify", "qstrat.algebra", "Algebra.verify"),
    ("algebra.truncate_lower", "qstrat.algebra", "Algebra.truncate_lower"),
    ("algebra.truncate_upper", "qstrat.algebra", "Algebra.truncate_upper"),
    ("rep.hom_space", "qstrat.rep", "hom_space"),
    ("rep.ext", "qstrat.rep", "ext1_with_cocycles"),
    ("rep.ext", "qstrat.rep", "ext_dims"),
    ("rep.isomorphism", "qstrat.rep", "isomorphism"),
    ("rep.decompose", "qstrat.rep", "decompose"),
    ("rep.endomorphism_algebra", "qstrat.rep", "endomorphism_algebra"),
    ("strat.standard_family", "qstrat.strat", "standard_family"),
    ("strat.certify_flag", "qstrat.strat", "certify_flag"),
    ("strat.check", "qstrat.strat", "check_stratified"),
    ("strat.check", "qstrat.strat", "check_fully_stratified"),
    ("strat.check", "qstrat.strat", "bgg_reciprocity"),
    ("strat.check", "qstrat.strat", "ext_orthogonality"),
    ("tilting.tilting_module", "qstrat.tilting", "tilting_module"),
    ("tilting.verify_ringel", "qstrat.tilting", "verify_ringel"),
    ("tilting.truncation_tower", "qstrat.tilting", "truncation_tower"),
    ("based.extract_cellular", "qstrat.based", "extract_cellular"),
    ("based.verify", "qstrat.based", "verify_based"),
    ("based.verify", "qstrat.based", "cell_verify"),
]
ROOT = "cli.job"
BOOKKEEPING = "trace.bookkeeping"
KEYED = {"algebra.truncate_lower", "strat.standard_family"}


def _structure_key(algebra, memo):
    """A hashable fingerprint of an algebra's structure constants,
    computed once per algebra object."""
    key = memo.get(id(algebra))
    if key is None or key[0] is not algebra:
        mult = tuple(sorted((kl, tuple(terms)) for kl, terms in algebra.mult.items()))
        fp = hash((repr(algebra.field), algebra.vertices, tuple(map(repr, algebra.basis)), mult))
        key = memo[id(algebra)] = (algebra, fp)
    return key[1]


def _spec_key(spec):
    return repr(sorted(spec.to_json().items()))


class Tracer:
    """Collects the spans of one job process."""

    def __init__(self):
        self.spans = []  # [layer, start, end, parent, extra]
        self._stack = []
        self._seen = set()
        self._fingerprints = {}

    # -- extra data recorded at entry or exit, per layer -------------------

    def _on_entry(self, layer, args):
        if layer == "exactla.rref":
            m = args[0]
            return {"cells": m.nrows * m.ncols}
        if layer == "rep.hom_space":
            m, n = args[0], args[1]
            return {"unknowns": sum(m.dims[v] * n.dims[v] for v in m.dims)}
        if layer == "algebra.truncate_lower":
            key = (layer, _structure_key(args[0], self._fingerprints), frozenset(args[1]))
            return {"repeat": self._repeat(key)}
        if layer == "strat.standard_family":
            key = (layer, _structure_key(args[0], self._fingerprints), _spec_key(args[1]))
            return {"repeat": self._repeat(key)}
        return None

    def _repeat(self, key):
        """1 if the key was already seen in this job, else 0."""
        if key in self._seen:
            return 1
        self._seen.add(key)
        return 0

    @staticmethod
    def _on_exit(layer, result, extra):
        if layer == "rep.isomorphism":
            extra = {"found": int(result is not None)}
        elif layer == "strat.certify_flag":
            extra = {"ok": int(bool(result))}
        return extra

    # -- spans ----------------------------------------------------------------

    def _open(self, layer, start, extra):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([layer, start, None, parent, extra])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, end):
        self.spans[self._stack.pop()][2] = end

    def wrap(self, layer, fn):
        keyed = layer in KEYED

        def traced(*args, **kwargs):
            t0 = time.perf_counter()
            extra = self._on_entry(layer, args)
            t1 = time.perf_counter()
            if keyed:
                # Fingerprinting is the tracer's own work: a child span keeps
                # it out of the caller's self time.
                self._open(BOOKKEEPING, t0, None)
                self._close(t1)
            idx = self._open(layer, t1, extra)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(time.perf_counter())
            self.spans[idx][4] = self._on_exit(layer, result, extra)
            return result

        return functools.wraps(fn)(traced)

    def run_root(self, fn, *args):
        """Run fn inside the root span of a job."""
        self._open(ROOT, time.perf_counter(), None)
        try:
            return fn(*args)
        finally:
            self._close(time.perf_counter())

    def install(self):
        """Wrap every entry point wherever it is looked up."""
        modules = [m for name, m in sys.modules.items() if m and (name == "qstrat" or name.startswith("qstrat."))]
        for layer, modname, attr in ENTRY_POINTS:
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self.wrap(layer, cls.__dict__[meth]))
                continue
            original = getattr(owner, attr)
            wrapped = self.wrap(layer, original)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapped)


def self_times(spans):
    """Per-span self time: duration minus the durations of direct children."""
    child = [0.0] * len(spans)
    for layer, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [s[2] - s[1] - c for s, c in zip(spans, child)]
