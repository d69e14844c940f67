"""Named pass/fail checks and the reports the verifiers return.

A report is a list of checks, each recording both sides of the
comparison so a failure is diagnosable from the report alone.  A
PillowConfig refuses a record of the wrong shape or not hashable; the
sphere and stage checks and the disjoint-pair route take any other lines
and triangles, so a malformed complex fails checks, and the exports refuse
only a field too long to print and, in the DOT graphs, line endpoints that
do not compare.  The verifiers take labels that do not compare.  Only the
table raises MalformedComplex, on a line-degree outside {3, 6}, and
``verify_configuration`` reports that as a failed check, so no verifier
raises.  A public verifier takes only its complex: ``verify_configuration``
shares its inputs through private sections.  A PillowConfig's a and b are
ints >= 2, by the rule of ``errors``.  A check prints an int too long to
print by its size.

The package's records (``Check`` here, the lines, triangles and tables
elsewhere) are immutable named tuples: read their fields by name, and use
``record._replace(field=value)`` for a changed copy.  ``Report`` is the one
mutable record, a title and the list of checks it collects.
"""
from __future__ import annotations

from collections import namedtuple

from .errors import _text


def _jsonable(value: object) -> object:
    # bool is an int, so it stays a JSON true or false; None becomes null
    if value is None or isinstance(value, (int, str)):
        return value
    # records are tuple subclasses; like every other object they render as
    # their str, so only plain tuples and lists become arrays
    if type(value) in (tuple, list):
        return [_jsonable(v) for v in value]
    return str(value)


class Check(namedtuple("Check", "name lhs rhs")):
    """One named comparison: passes iff ``lhs == rhs``."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return self.lhs == self.rhs

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "lhs": _jsonable(self.lhs),
            "rhs": _jsonable(self.rhs),
        }

    def __str__(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  {self.name}: {_text(self.lhs, False)} == {_text(self.rhs, False)}"


class Report:
    """An ordered list of checks produced by one verifier."""

    def __init__(self, title: str) -> None:
        self.title = title
        self.checks: list[Check] = []

    def add(self, name: str, lhs: object, rhs: object) -> Check:
        check = Check(name, lhs, rhs)
        self.checks.append(check)
        return check

    def extend(self, other: Report) -> None:
        self.checks.extend(other.checks)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> list[Check]:
        return [c for c in self.checks if not c.passed]

    def __getitem__(self, name: str) -> Check:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def __str__(self) -> str:
        lines = [self.title] + ["  " + str(c) for c in self.checks]
        lines.append("  => " + ("all checks passed" if self.all_passed else f"{len(self.failures)} check(s) FAILED"))
        return "\n".join(lines)
