"""CSV export of experiment results (for external plotting).

Every figure module returns a typed result; these helpers flatten them to
``(header, rows)`` pairs and write CSV files, so the paper's plots can be
regenerated in any plotting tool from ``python -m repro ... `` runs.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Iterable, List, Sequence, Tuple, Union

PathLike = Union[str, Path]

Table = Tuple[List[str], List[List[object]]]


def write_csv(path: PathLike, header: Sequence[str], rows: Iterable[Sequence[object]]) -> Path:
    """Write one table; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(header))
        for row in rows:
            writer.writerow(list(row))
    return path


def fig5_table(res) -> Table:
    """Flatten a Fig5Result to (header, rows)."""
    header = ["tasks", "stores", "machines", "lips_cost", "default_cost", "reduction"]
    rows = [
        [j, s, m, lp, d, r]
        for (j, s, m), lp, d, r in zip(
            res.sizes, res.lp_costs, res.default_costs, res.reductions
        )
    ]
    return header, rows


def fig9_table(res) -> Table:
    """Flatten a Fig9Result to (header, rows)."""
    from repro.experiments.common import DEFAULT, DELAY, LIPS

    c = res.comparison
    header = ["scheduler", "cost", "makespan_s", "response_time_sum_s", "locality"]
    rows = [
        [
            name,
            c.cost(name),
            c.makespan(name),
            c.metrics[name].total_job_execution_time,
            c.metrics[name].data_locality,
        ]
        for name in (DEFAULT, DELAY, LIPS)
    ]
    return header, rows


def frontier_table(frontier) -> Table:
    """Flatten a CostDeadlineFrontier to (header, rows)."""
    header = ["deadline_s", "cost", "feasible"]
    rows = [[p.deadline_s, p.cost if p.feasible else "", p.feasible] for p in frontier.points]
    return header, rows


def export_all(out_dir: PathLike, **results) -> List[Path]:
    """Write every provided result (keyed fig5/fig9/frontier)."""
    builders = {"fig5": fig5_table, "fig9": fig9_table, "frontier": frontier_table}
    written: List[Path] = []
    for key, res in results.items():
        if key not in builders:
            raise KeyError(f"unknown result kind {key!r}; known: {sorted(builders)}")
        header, rows = builders[key](res)
        written.append(write_csv(Path(out_dir) / f"{key}.csv", header, rows))
    return written
