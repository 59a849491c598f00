"""Figures 9 & 10 — the 100-node SWIM/Facebook-day experiment.

The paper's scale validation: 100 EC2 nodes of three instance types spread
over three availability zones, replaying a 400-job day-long workload
generated with SWIM from Facebook's FB-2010 trace.  Figure 9: LiPS' total
dollar cost is 68–69% below both baselines.  Figure 10: LiPS' execution
time is 40–100% longer than the delay scheduler's, similar to the default's.

Our workload is the synthetic FB-like day of :mod:`repro.workload.swim`
(see DESIGN.md for the substitution rationale).  Both figures come from the
same three runs: ``repro fig9`` and ``repro fig10`` both print both tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.cluster.builder import build_paper_testbed
from repro.experiments.common import (
    DEFAULT,
    DELAY,
    LIPS,
    ComparisonResult,
    compare_schedulers,
    shared,
)
from repro.experiments.export import export_all
from repro.experiments.parallel import pool_size
from repro.experiments.report import format_table
from repro.workload.swim import SwimConfig, synthesize_facebook_day

#: paper-scale parameters
PAPER_NODES: int = 100
PAPER_JOBS: int = 400
PAPER_DURATION_S: float = 24 * 3600.0
DEFAULT_EPOCH_S: float = 600.0

#: the one reduced size, shared by ``repro fig9``/``fig10`` and their
#: claims: a quarter-day slice of 120 jobs on 40 nodes
REDUCED = dict(num_nodes=40, num_jobs=120, duration_s=6 * 3600.0)


@dataclass
class Fig9Result:
    comparison: ComparisonResult
    num_jobs: int
    num_nodes: int

    def saving(self, baseline: str = DELAY) -> float:
        """LiPS cost saving vs the given baseline."""
        return self.comparison.saving_vs(baseline)

    def slowdown(self, baseline: str = DELAY) -> float:
        """LiPS makespan increase vs the given baseline."""
        return self.comparison.slowdown_vs(baseline)


def run(
    num_nodes: int = PAPER_NODES,
    num_jobs: int = PAPER_JOBS,
    duration_s: float = PAPER_DURATION_S,
    epoch_length: float = DEFAULT_EPOCH_S,
    seed: int = 0,
    placement_seed: int = 11,
    backend: Optional[object] = None,
    workers: int = 0,
) -> Fig9Result:
    # three instance types, one third each, across three zones (paper setup)
    """Run the scheduler line-up on the SWIM-day setting."""
    cluster = build_paper_testbed(
        num_nodes,
        c1_medium_fraction=1.0 / 3.0,
        m1_small_fraction=1.0 / 3.0,
        seed=seed,
    )
    # Weak scaling: shrink the job-size classes with the cluster so the
    # burst-to-epoch-capacity ratio matches the paper's 100-node setting
    # (otherwise a tail job alone exceeds the cheap nodes' epoch capacity
    # and every scheduler is forced onto expensive nodes alike).
    scale = num_nodes / PAPER_NODES
    classes = tuple(
        (name, prob, (max(1, int(lo * scale)), max(2, int(hi * scale))))
        for name, prob, (lo, hi) in SwimConfig().classes
    )
    workload = synthesize_facebook_day(
        SwimConfig(
            num_jobs=num_jobs,
            duration_s=duration_s,
            classes=classes,
            num_origin_stores=cluster.num_stores,
            seed=seed,
        )
    )
    comparison = compare_schedulers(
        cluster,
        workload,
        epoch_length=epoch_length,
        placement_seed=placement_seed,
        backend=backend,
        workers=workers,
    )
    return Fig9Result(comparison=comparison, num_jobs=num_jobs, num_nodes=num_nodes)


def fig9_rows(res: Fig9Result) -> List[List[str]]:
    """Format the cost row of Figure 9."""
    c = res.comparison
    return [
        [
            f"{res.num_nodes} nodes / {res.num_jobs} jobs",
            f"{c.cost(DEFAULT):.4f}",
            f"{c.cost(DELAY):.4f}",
            f"{c.cost(LIPS):.4f}",
            f"{100*c.saving_vs(DEFAULT):.1f}%",
            f"{100*c.saving_vs(DELAY):.1f}%",
        ]
    ]


def fig10_rows(res: Fig9Result) -> List[List[str]]:
    """Format the execution-time row of Figure 10."""
    c = res.comparison
    return [
        [
            f"{res.num_nodes} nodes / {res.num_jobs} jobs",
            f"{c.makespan(DEFAULT):.0f}",
            f"{c.makespan(DELAY):.0f}",
            f"{c.makespan(LIPS):.0f}",
            f"+{100*c.slowdown_vs(DELAY):.0f}%",
        ]
    ]


def run_at(full: bool = False) -> Fig9Result:
    """The SWIM day at its reduced size, or at the paper's with ``full``."""
    return run(**({} if full else REDUCED), workers=pool_size())


def main(full: bool = False, csv_dir: Optional[str] = None) -> int:
    """Print the Figures 9 and 10 tables (and their CSV into ``csv_dir``)."""
    res = shared(run_at, full)
    print(
        format_table(
            ["setting", "default $", "delay $", "LiPS $", "saving vs default", "saving vs delay"],
            fig9_rows(res),
            title="Figure 9 — total dollar cost, SWIM day "
            "(paper, 100 nodes: 68-69% saving vs both)",
        )
    )
    print()
    print(
        format_table(
            ["setting", "default s", "delay s", "LiPS s", "LiPS vs delay"],
            fig10_rows(res),
            title="Figure 10 — total job execution time "
            "(paper: 40-100% longer than delay)",
        )
    )
    if csv_dir:
        for path in export_all(csv_dir, fig9=res):
            print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
