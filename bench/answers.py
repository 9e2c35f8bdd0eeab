"""The mathematical answers of a job, and the checks made on them.

A job's answers are the parts of its JSON report that a speed-up must not
change: the verdict, the number of checks, algebra and dual dimensions,
flag and tilting multiplicities, and the tower data.  Jobs listed in
`reference.json` (every job of the default seeds, recorded at the commit
that defined the benchmark) must match it exactly, over Q and F_p alike.
Any other job is checked against invariants that hold for every sign
vector, including the source algebra dimensions recorded per window.
"""

from __future__ import annotations

import json
import os

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def _checks(report, kind):
    """{label: details} of the checks named kind[label]."""
    out = {}
    for c in report["checks"]:
        name = c["name"]
        if name.startswith(kind + "["):
            out[name[len(kind) + 1 : -1]] = c["details"]
    return out


def extract(command, report):
    """The answers of one job, from its parsed JSON report."""
    checks = report["checks"]
    ans = {
        "ok": report["ok"],
        "checks": len(checks),
        "failed": sorted(c["name"] for c in checks if not c["ok"]),
    }
    data = report["data"]
    if command == "ringel":
        dc = next((c["details"] for c in checks if c["name"] == "double_centralizer_dim"), {})
        ans["source_dim"] = dc.get("source_dim")
        ans["end_dim"] = dc.get("end_dim")
        ans["dual_dim"] = data["dual_dim"]
        ans["dual_graded_dims"] = dict(sorted(data["dual_graded_dims"].items()))
        ans["ext_transfer"] = {k: v["source"] for k, v in _checks(report, "ext_transfer").items()}
    elif command == "cellular":
        ans["flavor"] = data.get("flavor")
        ans["product_basis"] = next((c["details"] for c in checks if c["name"] == "product_basis"), None)
        ans["cell_sizes"] = {k: v["size"] for k, v in _checks(report, "cell_basis_size").items()}
        ans["cell_filtrations"] = {
            k: [s["multiplicities"] for s in v["sections"]]
            for k, v in _checks(report, "projective_cell_filtration").items()
        }
    elif command == "tower":
        ans["windows"] = {
            w: {k: d[k] for k in ("algebra_dim", "standard_dims", "tilting_multiplicities")}
            for w, d in data["windows"].items()
        }
    elif command == "build":
        ans["dim"] = data["dim"]
        ans["graded_dims"] = data["graded_dims"]
    elif command == "verify":
        ans["projective_flags"] = {k: v["forced_multiplicities"] for k, v in _checks(report, "projective_flag").items()}
        ans["injective_flags"] = {k: v["forced_multiplicities"] for k, v in _checks(report, "injective_flag").items()}
        for k in ("verdict", "fully_stratified", "simple_strata", "signs"):
            ans[k] = data.get(k)
    return ans


def source_dim(job, ans):
    """The dimension of the job's source algebra, where its answers show it."""
    if job.command == "ringel":
        return ans["source_dim"]
    if job.command == "build":
        return ans["dim"]
    return None


def invariant_errors(job, ans, dims):
    """Violations of what must hold for any sign vector.  dims maps an
    example name to its recorded algebra dimension."""
    errs = []
    n = len(job.labels)
    if ans["ok"] != (not ans["failed"]):
        errs.append("verdict disagrees with the failed checks")
    want_dim = dims.get(job.algebra)
    got_dim = source_dim(job, ans)
    if want_dim is not None and got_dim is not None and got_dim != want_dim:
        errs.append(f"source dimension {got_dim}, recorded {want_dim}")
    if job.command == "ringel":
        if ans["checks"] != n * n + 8 * n + 2:
            errs.append(f"{ans['checks']} checks for {n} labels, expected {n * n + 8 * n + 2}")
        if sum(ans["dual_graded_dims"].values()) != ans["dual_dim"]:
            errs.append("graded pieces of the dual do not add up to its dimension")
        if len(ans["ext_transfer"]) != n * n:
            errs.append(f"{len(ans['ext_transfer'])} Ext transfer pairs for {n} labels")
    elif job.command == "cellular" and ans["ok"]:
        # A failing verdict (say, no tilting-rigid structure) carries
        # fewer checks; only a passing one has a fixed shape.
        pb = ans["product_basis"] or {}
        if ans["checks"] != 6 * n + 4:
            errs.append(f"{ans['checks']} checks for {n} labels, expected {6 * n + 4}")
        if want_dim is not None and pb.get("dim") != want_dim:
            errs.append(f"cellular basis of the dual has {pb.get('dim')} elements, source dimension {want_dim}")
    elif job.command == "verify":
        requested = dict(p.split("=") for p in job.args[0].split("=", 1)[1].split(","))
        if ans["signs"] != requested:
            errs.append("report signs differ from the requested signs")
        if ans["ok"] and ans["checks"] != 4 * n * n + 2 * n:
            errs.append(f"{ans['checks']} checks for {n} labels, expected {4 * n * n + 2 * n}")
        if ans["ok"] and sorted(ans["projective_flags"]) != sorted(job.labels):
            errs.append("not every projective has a flag check")
    return errs


class Checker:
    """Judges a job's answers against the reference or the invariants."""

    def __init__(self, reference=None):
        if reference is None:
            with open(REFERENCE_PATH) as fh:
                reference = json.load(fh)
        self.answers = reference["answers"]
        self.dims = reference["dims"]

    def errors(self, job, ans):
        want = self.answers.get(job.key)
        if want is not None:
            if ans != want:
                diff = sorted(k for k in set(want) | set(ans) if want.get(k) != ans.get(k))
                return [f"answers differ from the reference in {', '.join(diff)}"]
            return []
        return invariant_errors(job, ans, self.dims)
