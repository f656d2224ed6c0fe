"""Structured pass/fail reporting: certificates for single criteria and
suite reports with deterministic serialization.
"""

import json
from dataclasses import dataclass, field
from fractions import Fraction


def fmt_value(x):
    """Render a value for a report: exact fractions as "p/q", doubles with
    17 significant digits, containers recursively.  The Fraction test, an
    abstract-class isinstance, comes after the cheap branches that most
    leaves take."""
    if x is None or isinstance(x, (int, str)):  # bool is an int
        return x
    if isinstance(x, float):
        return format(x, ".17g")
    if isinstance(x, (list, tuple)):
        return [fmt_value(v) for v in x]
    if isinstance(x, dict):
        return {str(k): fmt_value(v) for k, v in x.items()}
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    return str(x)


@dataclass
class CheckRecord:
    name: str
    passed: bool
    value: object = None
    tolerance: object = None
    note: str = ""

    def to_dict(self):
        return {
            "name": self.name,
            "pass": self.passed,
            "value": fmt_value(self.value),
            "tolerance": fmt_value(self.tolerance),
            "note": self.note,
        }


class _CheckList:
    """The pass/fail logic shared by certificates and reports, over the
    CheckRecord list `checks` that each of them holds."""

    def add(self, name, passed, value=None, tolerance=None, note=""):
        self.checks.append(CheckRecord(name, bool(passed), value, tolerance, note))

    def add_bounded(self, name, value, tolerance, note=""):
        """A row that passes when value <= tolerance (so a NaN fails), the
        bound written once for the test and the printed tolerance."""
        self.add(name, value <= tolerance, value, tolerance, note)

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def first_failure(self):
        return next((c for c in self.checks if not c.passed), None)


@dataclass
class Certificate(_CheckList):
    """Pass/fail evidence for one criterion (isospectrality, HR, Butler, CIH)."""

    criterion: str
    subject: str
    checks: list = field(default_factory=list)
    data: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "criterion": self.criterion,
            "subject": self.subject,
            "pass": self.passed,
            "checks": [c.to_dict() for c in self.checks],
            "data": fmt_value(self.data),
        }


@dataclass
class Report(_CheckList):
    """A suite report; the serialized body is byte-reproducible for a fixed
    suite, seed and program version, and excludes wall time."""

    suite: str
    seed: int
    manifolds: list
    checks: list = field(default_factory=list)
    wall_time_s: float = 0.0

    def add_certificate(self, cert):
        self.add(
            f"{cert.criterion}[{cert.subject}]",
            cert.passed,
            value={"checks": len(cert.checks)},
            note=(cert.first_failure().name if not cert.passed else ""),
        )

    def body(self):
        return {
            "suite": self.suite,
            "seed": self.seed,
            "manifolds": list(self.manifolds),
            "checks": [c.to_dict() for c in self.checks],
            "pass": self.passed,
        }

    def body_text(self):
        return json.dumps(self.body(), indent=2, sort_keys=False)

    def to_text(self):
        doc = {"body": self.body(), "wall_time_s": fmt_value(self.wall_time_s)}
        return json.dumps(doc, indent=2, sort_keys=False)
