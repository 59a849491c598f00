"""Figures 6 & 7 — cost reduction and execution time vs node diversity.

The paper's 20-node EC2 experiment: run J1–J9 (Table IV; 1608 maps) under
the Hadoop default, delay, and LiPS schedulers, on clusters whose c1.medium
share grows 0% → 25% → 50%.  Figure 6 reports LiPS' cost saving (paper:
62% homogeneous → 79–81% at 50% c1.medium); Figure 7 the total execution
time (paper: LiPS 40–100% longer than delay, growing with fast-node share).

Both figures come from the same runs: :func:`run` computes them together,
and ``repro fig6`` and ``repro fig7`` both print both tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.cluster.builder import build_paper_testbed
from repro.experiments.common import (
    DEFAULT,
    DELAY,
    LIPS,
    ComparisonResult,
    compare_schedulers,
    shared,
)
from repro.experiments.report import format_table
from repro.workload.apps import table4_jobs

#: the paper's node-mix sweep: fraction of c1.medium nodes
PAPER_MIXES: Sequence[float] = (0.0, 0.25, 0.5)

#: default epoch for the 20-node runs (long enough to let the LP pack the
#: cheap nodes; Figure 8 sweeps this knob explicitly)
DEFAULT_EPOCH_S: float = 1800.0


@dataclass
class Fig6Result:
    mixes: Sequence[float]
    comparisons: List[ComparisonResult]

    def savings(self, baseline: str = DELAY) -> List[float]:
        """Per-mix LiPS saving vs the given baseline."""
        return [c.saving_vs(baseline) for c in self.comparisons]

    def costs(self, scheduler: str) -> List[float]:
        """Per-mix total dollars of one scheduler."""
        return [c.cost(scheduler) for c in self.comparisons]

    def makespans(self, scheduler: str) -> List[float]:
        """Per-mix makespan seconds of one scheduler."""
        return [c.makespan(scheduler) for c in self.comparisons]

    def slowdowns(self, baseline: str = DELAY) -> List[float]:
        """Per-mix LiPS makespan increase vs the baseline."""
        return [c.slowdown_vs(baseline) for c in self.comparisons]


def run(
    mixes: Sequence[float] = PAPER_MIXES,
    total_nodes: int = 20,
    epoch_length: float = DEFAULT_EPOCH_S,
    seed: int = 0,
    placement_seed: int = 7,
    backend: Optional[object] = None,
    workload=None,
    workers: int = 0,
) -> Fig6Result:
    """Run the scheduler line-up across the node-mix sweep."""
    comparisons: List[ComparisonResult] = []
    w = workload if workload is not None else table4_jobs()
    for mix in mixes:
        cluster = build_paper_testbed(
            total_nodes, c1_medium_fraction=mix, seed=seed
        )
        comparisons.append(
            compare_schedulers(
                cluster,
                w,
                epoch_length=epoch_length,
                placement_seed=placement_seed,
                backend=backend,
                workers=workers,
            )
        )
    return Fig6Result(mixes=list(mixes), comparisons=comparisons)


def fig6_rows(res: Fig6Result) -> List[List[str]]:
    """Format the cost rows of Figure 6."""
    rows = []
    for mix, comp in zip(res.mixes, res.comparisons):
        rows.append(
            [
                f"{100*mix:.0f}% c1.medium",
                f"{comp.cost(DEFAULT):.4f}",
                f"{comp.cost(DELAY):.4f}",
                f"{comp.cost(LIPS):.4f}",
                f"{100*comp.saving_vs(DEFAULT):.1f}%",
                f"{100*comp.saving_vs(DELAY):.1f}%",
            ]
        )
    return rows


def fig7_rows(res: Fig6Result) -> List[List[str]]:
    """Format the execution-time rows of Figure 7."""
    rows = []
    for mix, comp in zip(res.mixes, res.comparisons):
        rows.append(
            [
                f"{100*mix:.0f}% c1.medium",
                f"{comp.makespan(DEFAULT):.0f}",
                f"{comp.makespan(DELAY):.0f}",
                f"{comp.makespan(LIPS):.0f}",
                f"+{100*comp.slowdown_vs(DELAY):.0f}%",
            ]
        )
    return rows


def run_at(full: bool = False) -> Fig6Result:
    """The 20-node sweep, in process; it is already the paper's size."""
    return run()


def main(full: bool = False, csv_dir: Optional[str] = None) -> int:
    """Print the Figures 6 and 7 tables."""
    res = shared(run_at, full)
    print(
        format_table(
            ["node mix", "default $", "delay $", "LiPS $", "saving vs default", "saving vs delay"],
            fig6_rows(res),
            title="Figure 6 — LiPS cost reduction, 20-node cluster "
            "(paper: 62% homogeneous -> 79-81% at 50% c1.medium)",
        )
    )
    print()
    print(
        format_table(
            ["node mix", "default s", "delay s", "LiPS s", "LiPS vs delay"],
            fig7_rows(res),
            title="Figure 7 — total job execution time "
            "(paper: LiPS 40-100% longer than delay)",
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
