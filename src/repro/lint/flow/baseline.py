"""Repo-root baseline for flow findings: grandfather the deliberate ones.

A whole-program analyzer on a living codebase needs a way to say "this
finding is known, reviewed, and deliberately not fixed" without a
suppression comment at every site.  The baseline file
(``FLOW_BASELINE.json`` at the repo root) holds those exceptions:

.. code-block:: json

    {
      "version": 1,
      "entries": [
        {
          "rule": "FLOW102",
          "path": "src/repro/experiments/common.py",
          "symbol": "repro.experiments.common:_scheduler_task",
          "reason": "lpprof state stays process-local by design"
        }
      ]
    }

Matching is deliberately line-number-free — entries key on
``(rule, path suffix, symbol)`` where *symbol* is the finding's stable
anchor (a function qname), so ordinary code churn does
not invalidate the baseline.  Every entry **must** carry a non-empty
``reason``; entries that no longer match anything are reported as *stale*
so the file cannot silently rot.  ``python -m repro lint --flow
--write-baseline`` regenerates the file from current findings (reasons are
stubbed for a human to fill in).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from repro.lint.findings import Finding

#: Default baseline filename, looked up at the repo root.
DEFAULT_BASELINE_NAME = "FLOW_BASELINE.json"


@dataclass(frozen=True)
class BaselineEntry:
    """One grandfathered finding."""

    rule: str
    path: str  #: posix path suffix the finding's location must end with
    symbol: str  #: the finding's stable anchor ("" matches any symbol)
    reason: str  #: required human justification

    def matches(self, finding: Finding) -> bool:
        """True when this entry grandfathers ``finding``."""
        if finding.rule != self.rule:
            return False
        location = (finding.location or "").replace("\\", "/")
        if not location.endswith(self.path):
            return False
        return not self.symbol or finding.symbol == self.symbol


class BaselineError(ValueError):
    """Raised for malformed baseline files (bad JSON, missing reasons)."""


def load_baseline(path: Path) -> List[BaselineEntry]:
    """Parse a baseline file; a missing file is an empty baseline."""
    if not path.exists():
        return []
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise BaselineError(f"{path}: not valid JSON ({exc})") from exc
    entries = payload.get("entries") if isinstance(payload, dict) else None
    if not isinstance(entries, list):
        raise BaselineError(f"{path}: expected an object with an 'entries' list")
    out: List[BaselineEntry] = []
    for i, raw in enumerate(entries):
        if not isinstance(raw, dict):
            raise BaselineError(f"{path}: entry {i} is not an object")
        try:
            entry = BaselineEntry(
                rule=str(raw["rule"]),
                path=str(raw["path"]),
                symbol=str(raw.get("symbol", "")),
                reason=str(raw.get("reason", "")).strip(),
            )
        except KeyError as exc:
            raise BaselineError(f"{path}: entry {i} missing key {exc}") from exc
        if not entry.reason:
            raise BaselineError(
                f"{path}: entry {i} ({entry.rule} {entry.path}) has no reason — "
                "every baselined finding needs a written justification"
            )
        out.append(entry)
    return out


def apply_baseline(
    findings: Sequence[Finding], entries: Sequence[BaselineEntry]
) -> Tuple[List[Finding], List[Finding], List[BaselineEntry]]:
    """Split findings by the baseline.

    Returns ``(kept, baselined, stale)``: findings that still count,
    findings swallowed by a baseline entry, and entries that matched
    nothing (candidates for deletion).
    """
    kept: List[Finding] = []
    baselined: List[Finding] = []
    used = [False] * len(entries)
    for finding in findings:
        hit: Optional[int] = None
        for i, entry in enumerate(entries):
            if entry.matches(finding):
                hit = i
                break
        if hit is None:
            kept.append(finding)
        else:
            used[hit] = True
            baselined.append(finding)
    stale = [entry for entry, u in zip(entries, used) if not u]
    return kept, baselined, stale


def write_baseline(
    findings: Sequence[Finding], path: Path, reason: str = "TODO: justify or fix"
) -> int:
    """Write a baseline covering ``findings``; returns the entry count.

    Reasons are stubbed — the file is a starting point for a human edit,
    not an automatic amnesty (``load_baseline`` rejects empty reasons, and
    the stub is non-empty only so a fresh file round-trips; review it).
    """
    seen = set()
    entries = []
    for finding in sorted(
        findings, key=lambda f: (f.rule, f.location or "", f.symbol or "")
    ):
        location = (finding.location or "").replace("\\", "/")
        # keep the path repo-relative when we can spot the repo root
        for marker in ("src/", "tests/"):
            idx = location.rfind(marker)
            if idx >= 0:
                location = location[idx:]
                break
        key = (finding.rule, location, finding.symbol or "")
        if key in seen:
            continue
        seen.add(key)
        entries.append(
            {
                "rule": finding.rule,
                "path": location,
                "symbol": finding.symbol or "",
                "reason": reason,
            }
        )
    payload = {"version": 1, "entries": entries}
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return len(entries)
