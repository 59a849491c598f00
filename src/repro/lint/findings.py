"""Finding types shared by every lint rule.

A :class:`Finding` is one diagnostic: a stable rule id (``LM…`` for the LP
model linter, ``LIPS…`` for the LiPS well-posedness rules, ``AST…`` for the
per-module source rules, ``FLOW…`` for the whole-program passes), a
severity, a human-readable message and a location — ``file:line`` for
source findings, a model name for model findings.

The machine-readable form (:meth:`Finding.to_dict`) is what ``python -m
repro lint --format json`` emits and what CI consumes.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

#: Per-line suppression marker: ``# lint: ok=AST001`` or ``ok=AST001,FLOW201``.
_SUPPRESS_RE = re.compile(r"#\s*lint:\s*ok=([A-Z0-9,\s]+)")


class Severity(enum.Enum):
    """How bad a finding is.

    ``ERROR`` marks a model that cannot be solved as meant, an unreadable
    source file or a pool task with ambient RNG; ``WARNING`` marks a
    hazard.  ``python -m repro lint`` exits 1 on either.
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
    #: the function qname a flow finding is about; None elsewhere
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


def suppressed_rules(line: str) -> frozenset:
    """Rule ids suppressed by a source line's trailing lint marker."""
    m = _SUPPRESS_RE.search(line)
    if not m:
        return frozenset()
    return frozenset(part.strip() for part in m.group(1).split(",") if part.strip())


def errors(findings: Iterable[Finding]) -> List[Finding]:
    """The subset of findings at ERROR severity."""
    return [f for f in findings if f.severity is Severity.ERROR]


def render_text(findings: Sequence[Finding]) -> str:
    """Render findings as sorted human-readable lines plus a summary."""
    lines = [f.render() for f in sorted(
        findings, key=lambda f: (f.location or "", f.line or 0, f.rule)
    )]
    n_err = len(errors(findings))
    n_warn = len(findings) - n_err
    lines.append(f"{len(findings)} finding(s): {n_err} error(s), {n_warn} warning(s)")
    return "\n".join(lines)
