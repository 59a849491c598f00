"""Static structural analysis of LP models — runs *without solving*.

Two rule families:

**Generic rules (LM…)** over any :class:`~repro.lp.problem.AssembledLP`
(a column ``j`` is labelled ``x[j]``):

==========  ==============================================================
``LM001``   dangling variable: in no constraint and absent from the
            objective — its value is arbitrary, which usually means a
            builder forgot a constraint block
``LM002``   zero row: a constraint with no nonzero coefficients (ERROR
            when its rhs makes the empty row unsatisfiable)
``LM003``   duplicate row: two rows with identical coefficients and rhs
``LM004``   dominated row: identical coefficients, looser rhs — redundant
``LM005``   variable unbounded in the objective's improving direction
            (negative cost, no upper bound, nothing limits it from above)
``LM006``   negative cost coefficient in a dollar-cost objective
``LM007``   constraint-coefficient magnitude spread beyond ~1e8
            (conditioning warning; the objective is excluded because the
            fake node's price is *deliberately* dominant)
==========  ==============================================================

**LiPS well-posedness rules (LIPS…)** over a
:class:`~repro.core.assembly.ModelAssembler` + its built model, keyed by
which paper figure the model claims to be:

==========  ==============================================================
``LIPS001`` online (Figure 4) models must contain the fake node F
``LIPS002`` the fake node's per-job cost must dominate every real
            alternative for that job (otherwise F absorbs real work)
``LIPS003`` with bandwidth enforcement on, the model must carry one
            constraint-(21) epoch-capacity row per (input job, machine)
``LIPS004`` co-scheduling models must force the data-placement fractions
            ``x^d_{ij}`` of every object to sum to (at least) 1
``LIPS005`` every model needs one job-coverage row per job
==========  ==============================================================

All checks are pure inspection of the compressed-row arrays of the model's
matrices and the assembler's ``row_ranges`` bookkeeping; nothing here ever
calls a backend.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.lint.findings import Finding, Severity
from repro.lp.problem import AssembledLP, CsrMatrix

#: max/min constraint-coefficient magnitude ratio before LM007 fires
CONDITIONING_SPREAD: float = 1e8


@dataclass(frozen=True)
class ModelProfile:
    """What the model under lint claims to be.

    ``kind`` names the paper figure (``simple-task`` / ``co-offline`` /
    ``co-online``) when known; ``dollar_objective`` states that objective
    coefficients are dollar costs (and therefore must be non-negative).
    """

    kind: Optional[str] = None
    dollar_objective: bool = True


def _row_label(ranges: Optional[dict], kind: str, i: int) -> str:
    if ranges:
        for family, (start, stop) in ranges.items():
            if kind == "ub" and start <= i < stop:
                return f"{family}[{i - start}]"
    return f"{kind}[{i}]"


def _row_keys(mat: CsrMatrix) -> List[tuple]:
    """Hashable (cols, vals) signature per row, for duplicate detection."""
    keys = []
    for r in range(mat.shape[0]):
        sl = slice(mat.indptr[r], mat.indptr[r + 1])
        pairs = sorted(zip(mat.indices[sl].tolist(), mat.data[sl].tolist()))
        keys.append(tuple(pairs))
    return keys


def lint_model(
    asm: AssembledLP,
    profile: Optional[ModelProfile] = None,
    row_ranges: Optional[dict] = None,
) -> List[Finding]:
    """Run the generic LM rules; returns findings (empty when clean).

    Findings name a column ``j`` as ``x[j]``.  ``row_ranges`` — as
    produced by :class:`~repro.core.assembly.ModelAssembler` — upgrades row
    indices in messages to constraint-family labels.
    """
    profile = profile or ModelProfile()
    findings: List[Finding] = []
    loc = asm.name
    n = asm.num_variables

    ub_counts = np.bincount(asm.a_ub.indices, minlength=n)
    eq_counts = np.bincount(asm.a_eq.indices, minlength=n)

    # LM001 — dangling variables
    for j in np.where((ub_counts == 0) & (eq_counts == 0) & (asm.c == 0.0))[0]:
        findings.append(
            Finding(
                rule="LM001",
                severity=Severity.WARNING,
                message=f"variable x[{j}] appears in no "
                "constraint and has zero objective cost; its value is arbitrary",
                location=loc,
            )
        )

    # LM002 — zero rows (ERROR when the empty row cannot hold)
    for kind, mat, rhs in (("ub", asm.a_ub, asm.b_ub), ("eq", asm.a_eq, asm.b_eq)):
        counts = np.diff(mat.indptr)
        for i in np.where(counts == 0)[0]:
            bad = rhs[i] < 0 if kind == "ub" else rhs[i] != 0
            findings.append(
                Finding(
                    rule="LM002",
                    severity=Severity.ERROR if bad else Severity.WARNING,
                    message=f"constraint {_row_label(row_ranges, kind, int(i))} has no "
                    f"nonzero coefficients (rhs {rhs[i]:g}"
                    + ("; trivially infeasible)" if bad else ")"),
                    location=loc,
                )
            )

    # LM003 / LM004 — duplicate and dominated <= rows
    ub_keys = _row_keys(asm.a_ub)
    by_key: dict = {}
    for i, key in enumerate(ub_keys):
        if not key:
            continue  # zero rows already reported by LM002
        by_key.setdefault(key, []).append(i)
    for key, rows in by_key.items():
        if len(rows) < 2:
            continue
        rhs = asm.b_ub[rows]
        tightest = rows[int(np.argmin(rhs))]
        for i in rows:
            if i == tightest:
                continue
            rule, what = (
                ("LM003", "duplicates")
                if asm.b_ub[i] == asm.b_ub[tightest]
                else ("LM004", "is dominated by")
            )
            findings.append(
                Finding(
                    rule=rule,
                    severity=Severity.WARNING,
                    message=f"constraint {_row_label(row_ranges, 'ub', i)} {what} "
                    f"{_row_label(row_ranges, 'ub', tightest)} "
                    f"(identical coefficients, rhs {asm.b_ub[i]:g} vs "
                    f"{asm.b_ub[tightest]:g})",
                    location=loc,
                )
            )

    # LM005 — unbounded in the improving (minimisation: downhill) direction.
    # A column with negative cost and +inf upper bound can grow without limit
    # unless some <= row has a positive coefficient on it (or an == row pins
    # it to the rest of the model).
    if n:
        has_pos_ub = np.zeros(n, dtype=bool)
        np.logical_or.at(has_pos_ub, asm.a_ub.indices, asm.a_ub.data > 0)
        for j in np.where(
            (asm.c < 0) & ~np.isfinite(asm.bounds[:, 1]) & ~has_pos_ub & (eq_counts == 0)
        )[0]:
            findings.append(
                Finding(
                    rule="LM005",
                    severity=Severity.ERROR,
                    message=f"variable x[{j}] has negative cost "
                    f"{asm.c[j]:g}, no upper bound, and no constraint limits it "
                    "from above — the model is unbounded",
                    location=loc,
                )
            )

    # LM006 — negative dollar costs
    if profile.dollar_objective:
        for j in np.where(asm.c < 0)[0]:
            findings.append(
                Finding(
                    rule="LM006",
                    severity=Severity.WARNING,
                    message=f"objective coefficient of x[{j}] is "
                    f"{asm.c[j]:g}; dollar costs must be non-negative",
                    location=loc,
                )
            )

    # LM007 — conditioning of the constraint matrix
    mags = np.abs(np.concatenate([asm.a_ub.data, asm.a_eq.data]))
    mags = mags[mags > 0]
    if mags.size:
        spread = float(mags.max() / mags.min())
        if spread > CONDITIONING_SPREAD:
            findings.append(
                Finding(
                    rule="LM007",
                    severity=Severity.WARNING,
                    message=f"constraint coefficient magnitudes span a factor of "
                    f"{spread:.2e} (> {CONDITIONING_SPREAD:.0e}); expect numerical "
                    "trouble — rescale units",
                    location=loc,
                )
            )

    return findings


# -- LiPS-specific well-posedness ------------------------------------------


def _range_rows(assembler, family: str) -> int:
    ranges = getattr(assembler, "row_ranges", None) or {}
    start, stop = ranges.get(family, (0, 0))
    return stop - start


def lint_lips(assembler, asm: AssembledLP, kind: str) -> List[Finding]:
    """Run the LIPS rules for a built paper model claiming to be ``kind``.

    ``kind`` is one of ``simple-task``, ``co-offline``, ``co-online`` — the
    solve paths pass the figure they implement, so a mis-built assembler
    (fake node dropped, bandwidth rows missing) is caught even though the
    assembler itself is internally consistent.
    """
    if kind not in ("simple-task", "co-offline", "co-online"):
        raise ValueError(f"unknown LiPS model kind {kind!r}")
    findings: List[Finding] = []
    loc = asm.name if asm.name != "lp" else kind
    K, L, S, D = assembler.K, assembler.L, assembler.S, assembler.D

    # LIPS001 — the online model is only always-feasible through fake node F
    if kind == "co-online" and not assembler.include_fake:
        findings.append(
            Finding(
                rule="LIPS001",
                severity=Severity.ERROR,
                message="online (Figure 4) model has no fake node F; an "
                "over-committed epoch would be infeasible instead of re-queued",
                location=loc,
            )
        )

    # LIPS002 — F must be priced above every real alternative per job
    if assembler.include_fake and K:
        off_f = assembler.off_f
        fake_costs = asm.c[off_f : off_f + K]
        real_max = np.zeros(K)
        if assembler.nd:
            per_job = asm.c[assembler.off_d : assembler.off_n].reshape(assembler.nd, L * S)
            real_max[assembler.kd] = per_job.max(axis=1)
        if assembler.nn:
            per_job = asm.c[assembler.off_n : assembler.off_f].reshape(assembler.nn, L)
            real_max[assembler.kn] = per_job.max(axis=1)
        for k in np.where(fake_costs <= real_max)[0]:
            findings.append(
                Finding(
                    rule="LIPS002",
                    severity=Severity.ERROR,
                    message=f"fake-node cost for job {int(k)} is {fake_costs[k]:g}, "
                    f"not above its most expensive real assignment "
                    f"({real_max[k]:g}); F would absorb schedulable work",
                    location=loc,
                )
            )

    # LIPS003 — constraint (21): one epoch-capacity row per (input job, machine)
    if assembler.epoch_bandwidth and assembler.nd:
        have = _range_rows(assembler, "epoch_bandwidth")
        want = assembler.nd * L
        if have != want:
            findings.append(
                Finding(
                    rule="LIPS003",
                    severity=Severity.ERROR,
                    message=f"bandwidth enforcement is on but the model has {have} "
                    f"epoch-capacity rows, expected one per (input job, machine) "
                    f"= {want}; transfers are not bounded by the epoch",
                    location=loc,
                )
            )

    # LIPS004 — co models: each object's x^d fractions must sum to >= 1
    if assembler.include_xd and D:
        have = _range_rows(assembler, "data_coverage")
        if have != D:
            findings.append(
                Finding(
                    rule="LIPS004",
                    severity=Severity.ERROR,
                    message=f"co-scheduling model has {have} data-coverage rows, "
                    f"expected one per data object = {D}; placement fractions "
                    "x^d are not forced to sum to 1",
                    location=loc,
                )
            )
        else:
            start, _ = assembler.row_ranges["data_coverage"]
            indptr = asm.a_ub.indptr[start : start + D + 1]
            # each row i must put -1 on exactly object i's S columns, rhs -1
            counts = np.diff(indptr)
            ok = (
                bool(np.all(counts == S))
                and bool(np.all(asm.a_ub.data[indptr[0] : indptr[-1]] == -1.0))
                and bool(np.all(asm.b_ub[start : start + D] == -1.0))
            )
            if not ok:
                findings.append(
                    Finding(
                        rule="LIPS004",
                        severity=Severity.ERROR,
                        message="data-coverage rows are malformed: each must be "
                        "-sum_j x^d_ij <= -1 over exactly the object's store "
                        "columns",
                        location=loc,
                    )
                )

    # LIPS005 — one coverage row per job, x fractions summing to >= 1
    have = _range_rows(assembler, "job_coverage")
    if have != K:
        findings.append(
            Finding(
                rule="LIPS005",
                severity=Severity.ERROR,
                message=f"model has {have} job-coverage rows, expected one per "
                f"job = {K}; some jobs are not required to be scheduled",
                location=loc,
            )
        )

    return findings


def lint_lips_model(assembler, asm: AssembledLP, kind: str) -> List[Finding]:
    """Full static pass for a built paper model: LM rules + LIPS rules."""
    ranges = getattr(assembler, "row_ranges", None)
    return lint_model(asm, ModelProfile(kind=kind), row_ranges=ranges) + lint_lips(
        assembler, asm, kind
    )
