"""Structured findings of the slice certifier.

Every analysis pass reports what it found as :class:`Diagnostic` records
rather than raising or printing: the offline pipeline, the ``repro
check`` CLI, and the tests all consume the same structured stream and
decide for themselves what is fatal (``certify`` mode, ``--strict``).

A finding that a human has reviewed and accepted — e.g. "this slice
assigns to a task global; isolation confines the write" — is *waived*
with a :class:`Suppression` rather than deleted: the record survives,
marked ``suppressed``, so the audit trail shows both the finding and
the decision to accept it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Iterable, Sequence

__all__ = [
    "SEVERITIES",
    "Diagnostic",
    "Suppression",
    "apply_suppressions",
]

#: Recognised severities, mildest first.  ``error`` blocks certification;
#: ``warning`` asks for review (and can be waived); ``info`` is advisory.
SEVERITIES = ("info", "warning", "error")


@dataclass(frozen=True)
class Diagnostic:
    """One finding of one analysis pass.

    Attributes:
        pass_name: The pass that produced the finding ("effects",
            "coverage", "intervals", "hazards", "liveness", "validate").
        severity: "info", "warning", or "error".
        site: The feature-site label or variable name the finding anchors
            to; empty when the finding is program-wide.
        message: Human-readable description.
        program: Name of the analyzed program.
        suppressed: True when a :class:`Suppression` waived the finding.
        suppressed_reason: The waiver's justification (empty otherwise).
    """

    pass_name: str
    severity: str
    site: str
    message: str
    program: str = ""
    suppressed: bool = False
    suppressed_reason: str = ""

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(
                f"unknown severity {self.severity!r}; expected one of "
                f"{SEVERITIES}"
            )
        if not self.pass_name:
            raise ValueError("Diagnostic requires a pass name")

    @property
    def blocking(self) -> bool:
        """True for unsuppressed error-severity findings."""
        return self.severity == "error" and not self.suppressed

    def as_dict(self) -> dict[str, Any]:
        """JSON-safe dict (inverse of :meth:`from_dict`)."""
        return {
            "pass": self.pass_name,
            "severity": self.severity,
            "site": self.site,
            "message": self.message,
            "program": self.program,
            "suppressed": self.suppressed,
            "suppressed_reason": self.suppressed_reason,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Diagnostic":
        return cls(
            pass_name=data["pass"],
            severity=data["severity"],
            site=data["site"],
            message=data["message"],
            program=data.get("program", ""),
            suppressed=data.get("suppressed", False),
            suppressed_reason=data.get("suppressed_reason", ""),
        )

    def format(self) -> str:
        """One-line rendering for CLI output."""
        anchor = f" @{self.site}" if self.site else ""
        waived = " [waived]" if self.suppressed else ""
        return (
            f"{self.severity:7s} {self.pass_name}{anchor}: "
            f"{self.message}{waived}"
        )


@dataclass(frozen=True)
class Suppression:
    """An explicit waiver for an expected finding.

    Workloads attach these next to their program definitions
    (:attr:`~repro.workloads.base.InteractiveApp.certifier_waivers`), so
    the acceptance of a finding lives in the same file as the code that
    provokes it.

    Attributes:
        pass_name: Pass whose findings this waives.
        site: Site/variable anchor to match; empty matches any site.
        reason: Why the finding is acceptable (required — an unexplained
            waiver is worse than the finding).
    """

    pass_name: str
    site: str = ""
    reason: str = ""

    def __post_init__(self) -> None:
        if not self.pass_name:
            raise ValueError("Suppression requires a pass name")
        if not self.reason:
            raise ValueError("Suppression requires a reason")

    def matches(self, diagnostic: Diagnostic) -> bool:
        if diagnostic.pass_name != self.pass_name:
            return False
        return not self.site or self.site == diagnostic.site


def apply_suppressions(
    diagnostics: Iterable[Diagnostic], waivers: Sequence[Suppression]
) -> list[Diagnostic]:
    """Mark findings matched by a waiver as suppressed (never drops them)."""
    out = []
    for diagnostic in diagnostics:
        for waiver in waivers:
            if waiver.matches(diagnostic):
                diagnostic = replace(
                    diagnostic,
                    suppressed=True,
                    suppressed_reason=waiver.reason,
                )
                break
        out.append(diagnostic)
    return out

