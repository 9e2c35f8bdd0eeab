"""Machine-readable verification reports.

Every top-level operation that verifies something returns a Report: a list
of named checks, each passing or failing with a finite witness, plus
free-form data tables.  Reports serialize to JSON for the CLI.
"""

from __future__ import annotations

import json


class Check:
    def __init__(self, name, ok, details):
        self.name = name
        self.ok = ok
        self.details = details


class Report:
    def __init__(self, command):
        self.command = command
        self.checks = []
        self._names = set()
        self.data = {}
        self.field = None  # the name of the field the job ran over, set by the CLI
        self.elapsed_s = 0.0

    def add(self, name, ok, **details):
        self._append(Check(name, bool(ok), details))
        return ok

    def extend(self, other):
        for c in other.checks:
            self._append(c)

    def _append(self, check):
        """Append a check; a name already held is refused, so that each
        failure is located by its name."""
        if check.name in self._names:
            raise ValueError(f"report {self.command!r} already holds a check {check.name!r}")
        self._names.add(check.name)
        self.checks.append(check)

    @property
    def ok(self):
        return all(c.ok for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.ok]

    def to_dict(self):
        return {
            "command": self.command,
            "ok": self.ok,
            "checks": [
                {"name": c.name, "ok": c.ok, "details": _plain(c.details)} for c in self.checks
            ],
            "data": _plain(self.data),
            "elapsed_s": self.elapsed_s,
            "field": self.field,
        }

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def _plain(obj):
    """Coerce report payloads into JSON-serializable data."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(x) for x in obj]
    if isinstance(obj, (int, float, str, bool)) or obj is None:
        return obj
    return str(obj)
