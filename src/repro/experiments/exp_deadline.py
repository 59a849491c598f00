"""The cost/deadline frontier — the analytic face of the epoch tradeoff.

Figure 8 sweeps the epoch knob inside the simulator; this experiment sweeps
the *deadline* in the offline LP (``horizon = D`` makes the Figure 3 model
"cheapest schedule finishing within D").  The frontier is the menu the
paper's closing line offers: deploy LiPS "when constraints on overall
makespan are flexible" — and here is exactly what each unit of flexibility
is worth.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.cluster.builder import build_paper_testbed
from repro.core.deadline import CostDeadlineFrontier, cost_deadline_frontier
from repro.core.model import SchedulingInput
from repro.experiments.common import shared
from repro.experiments.export import export_all
from repro.experiments.report import format_table
from repro.workload.apps import table4_jobs


def run(
    total_nodes: int = 20,
    c1_fraction: float = 0.5,
    num_points: int = 8,
    seed: int = 0,
    backend: Optional[object] = None,
    deadlines: Optional[Sequence[float]] = None,
) -> CostDeadlineFrontier:
    """Sweep deadlines on the 20-node Table IV input."""
    cluster = build_paper_testbed(total_nodes, c1_medium_fraction=c1_fraction, seed=seed)
    w = table4_jobs(origin_stores=list(range(cluster.num_stores)))
    inp = SchedulingInput.from_parts(cluster, w)
    return cost_deadline_frontier(
        inp, deadlines=deadlines, num_points=num_points, backend=backend
    )


def main(full: bool = False, csv_dir: Optional[str] = None) -> int:
    """Print the cost/deadline frontier table (and its CSV into ``csv_dir``)."""
    frontier = shared(run)
    if csv_dir:
        for path in export_all(csv_dir, frontier=frontier):
            print(f"wrote {path}")
    rows = []
    for p in frontier.points:
        rows.append(
            (
                f"{p.deadline_s:.0f}s",
                f"{p.cost:.4f}" if p.feasible else "infeasible",
            )
        )
    print(
        format_table(
            ["deadline", "minimal cost $"],
            rows,
            title="Cost/deadline frontier — Table IV on the 20-node testbed",
        )
    )
    cheapest = frontier.cheapest()
    if cheapest:
        print(
            f"\nfully flexible makespan: ${cheapest.cost:.4f} "
            f"at deadline {cheapest.deadline_s:.0f}s"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
