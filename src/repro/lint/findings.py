"""Finding types shared by both lint layers.

A :class:`Finding` is one diagnostic: a stable rule id (``LM…`` for the LP
model linter, ``LIPS…`` for the LiPS well-posedness rules, ``AST…`` for the
source-code pass), a severity, a human-readable message and a location —
``file:line`` for source findings, a model name for model findings.

The machine-readable form (:meth:`Finding.to_dict`, :func:`findings_to_json`)
is what ``python -m repro lint --format json`` emits and what CI consumes.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence


class Severity(enum.Enum):
    """How bad a finding is.

    ``ERROR`` findings make strict solve paths refuse to hand the model to a
    backend; ``WARNING`` findings are reported (and counted in the metrics
    registry) but never block.
    """

    WARNING = "warning"
    ERROR = "error"

    def __lt__(self, other: "Severity") -> bool:
        order = {Severity.WARNING: 0, Severity.ERROR: 1}
        return order[self] < order[other]


@dataclass(frozen=True)
class Finding:
    """One diagnostic from either lint layer."""

    rule: str
    severity: Severity
    message: str
    #: source file for AST findings; model name for model findings
    location: Optional[str] = None
    #: 1-based line for AST findings; None for model findings
    line: Optional[int] = None
    #: stable anchor for baseline matching (flow findings: the function
    #: qname the finding is about); None elsewhere
    symbol: Optional[str] = None

    def to_dict(self) -> dict:
        """JSON-ready view (stable key order)."""
        return {
            "rule": self.rule,
            "severity": self.severity.value,
            "message": self.message,
            "location": self.location,
            "line": self.line,
            "symbol": self.symbol,
        }

    def render(self) -> str:
        """One-line human-readable form (``location:line: RULE severity: msg``)."""
        where = self.location or "<model>"
        if self.line is not None:
            where = f"{where}:{self.line}"
        return f"{where}: {self.rule} {self.severity.value}: {self.message}"


def errors(findings: Iterable[Finding]) -> List[Finding]:
    """The subset of findings at ERROR severity."""
    return [f for f in findings if f.severity is Severity.ERROR]


def findings_to_json(findings: Sequence[Finding]) -> str:
    """Render findings as a JSON document (list of objects + summary)."""
    payload = {
        "findings": [f.to_dict() for f in findings],
        "errors": len(errors(findings)),
        "warnings": sum(1 for f in findings if f.severity is Severity.WARNING),
    }
    return json.dumps(payload, indent=2)


def render_text(findings: Sequence[Finding]) -> str:
    """Render findings as sorted human-readable lines plus a summary."""
    lines = [f.render() for f in sorted(
        findings, key=lambda f: (f.location or "", f.line or 0, f.rule)
    )]
    n_err = len(errors(findings))
    n_warn = len(findings) - n_err
    lines.append(f"{len(findings)} finding(s): {n_err} error(s), {n_warn} warning(s)")
    return "\n".join(lines)


@dataclass
class ModelLintError(RuntimeError):
    """Raised by strict solve paths when the model linter reports errors.

    Carries the full finding list so callers (and tests) can inspect which
    well-posedness rule rejected the model before any solver ran.
    """

    findings: List[Finding] = field(default_factory=list)

    def __post_init__(self) -> None:
        bad = errors(self.findings)
        super().__init__(
            f"model failed static lint with {len(bad)} error(s): "
            + "; ".join(f.render() for f in bad[:5])
        )
