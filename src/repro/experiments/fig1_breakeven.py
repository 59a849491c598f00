"""Figure 1 — when does it pay to move the data to cheaper cycles?

The paper plots, per application, the relative saving from moving a job's
data from node A (CPU price ``a``) to node B (price ``b``) as a function of
the price ratio ``a / b``, with the cross-zone transfer price as ``d``:

    move iff  c*a > c*b + d      (c = CPU-s per MB, Table I)

CPU-intensive apps (Pi, WordCount) cross break-even at small ratios; I/O
bound apps (Grep) need huge ratios before the transfer price amortises.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.cluster.ec2 import MILLICENT, transfer_cost_per_mb
from repro.cost.pricing import move_data_break_even
from repro.experiments.common import shared
from repro.experiments.report import format_table
from repro.workload.apps import APP_PROFILES

#: reference destination CPU price: c1.medium mid (Table III footnote)
DST_PRICE = 1.1 * MILLICENT
#: the paper's cross-zone price ($0.01/GB)
TRANSFER_PER_MB = transfer_cost_per_mb(cross_zone=True)

DEFAULT_RATIOS = (1.0, 1.5, 2.0, 3.0, 5.0, 8.0, 12.0, 20.0)


@dataclass
class BreakEvenCurves:
    """Relative saving per app per price ratio, plus break-even ratios."""

    ratios: Sequence[float]
    savings: Dict[str, List[float]]  # app -> relative saving per ratio
    break_even_ratio: Dict[str, float]  # app -> smallest ratio where moving wins


def run(ratios: Sequence[float] = DEFAULT_RATIOS) -> BreakEvenCurves:
    """Evaluate the break-even curves over the price-ratio sweep."""
    savings: Dict[str, List[float]] = {}
    break_even: Dict[str, float] = {}
    for app, prof in APP_PROFILES.items():
        tcp = prof.tcp  # CPU-s per MB; 0 marks the input-less Pi job
        curve: List[float] = []
        for r in ratios:
            src_price = r * DST_PRICE
            if prof.is_input_less:
                # no data to move: moving the computation is free of transfer
                saving = 1.0 - 1.0 / r if r > 0 else 0.0
            else:
                be = move_data_break_even(tcp, src_price, DST_PRICE, TRANSFER_PER_MB)
                saving = be.relative_saving
            curve.append(saving)
        savings[app] = curve
        if prof.is_input_less:
            break_even[app] = 1.0
        else:
            # analytic break-even: c*a > c*b + d  =>  a/b > 1 + d/(c*b)
            break_even[app] = 1.0 + TRANSFER_PER_MB / (tcp * DST_PRICE) if tcp > 0 else float("inf")
    return BreakEvenCurves(ratios=list(ratios), savings=savings, break_even_ratio=break_even)


def main(full: bool = False, csv_dir: Optional[str] = None) -> int:
    """Print the Figure 1 table."""
    res = shared(run)
    rows = []
    for app, curve in res.savings.items():
        rows.append(
            [app, f"{res.break_even_ratio[app]:.2f}"] + [f"{100*s:.1f}%" for s in curve]
        )
    headers = ["app", "break-even a/b"] + [f"r={r:g}" for r in res.ratios]
    print(
        format_table(
            headers,
            rows,
            title="Figure 1 — relative saving from moving data vs CPU price ratio",
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
