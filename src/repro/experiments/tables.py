"""Emitters for the paper's parameter tables (I, III, IV).

These tables are inputs rather than results; regenerating them checks that
the repo's constants match the paper verbatim.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import List, Sequence, Tuple

from repro.cluster.ec2 import table3_rows
from repro.experiments.report import format_table
from repro.workload.apps import table1_rows, table4_jobs


def table1() -> str:
    """Paper Table I: CPU intensiveness per application."""
    rows = [(app, kind, cpu) for app, kind, cpu in table1_rows()]
    return format_table(
        ["app", "property", "CPU-s / 64MB block"],
        rows,
        title="Table I — CPU intensiveness for different jobs",
    )


def table3() -> str:
    """Paper Table III: EC2 instance catalog with derived per-ECU-s price."""
    rows: List[Sequence[object]] = []
    for name, cpus, ecu, mem, storage, price, millicent in table3_rows():
        rows.append((name, cpus, ecu, mem, storage, price, f"{millicent:.2f}"))
    return format_table(
        ["instance", "CPUs", "ECU", "mem GB", "storage GB", "$/hr", "millicent/ECU-s (mid)"],
        rows,
        title="Table III — Amazon EC2 instance types",
    )


def table4() -> str:
    """Paper Table IV: the nine-job 20-node workload."""
    w = table4_jobs()
    rows = []
    for job in w.jobs:
        input_gb = job.total_input_mb(w.data) / 1024.0
        rows.append((job.name, job.app, job.num_tasks, f"{input_gb:g}"))
    total_tasks = w.total_tasks()
    total_gb = w.total_input_mb() / 1024.0
    rows.append(("TOTAL", "", total_tasks, f"{total_gb:g}"))
    return format_table(
        ["job", "app", "map tasks", "input GB"],
        rows,
        title="Table IV — job details (expect 1608 maps, 100 GB total)",
    )


def _csv_data(name: str) -> Tuple[List[str], List[Sequence[object]]]:
    """Raw (header, rows) for one table's CSV export."""
    if name == "table1":
        return (
            ["app", "property", "cpu_s_per_64mb_block"],
            [list(r) for r in table1_rows()],
        )
    if name == "table3":
        return (
            ["instance", "cpus", "ecu", "mem_gb", "storage_gb", "dollars_per_hr",
             "millicent_per_ecu_s"],
            [list(r) for r in table3_rows()],
        )
    w = table4_jobs()
    return (
        ["job", "app", "map_tasks", "input_gb"],
        [
            (job.name, job.app, job.num_tasks, job.total_input_mb(w.data) / 1024.0)
            for job in w.jobs
        ],
    )


def main(
    full: bool = False,
    csv_dir: object = None,
    which: Sequence[str] = ("table1", "table3", "table4"),
) -> int:
    """Print the requested tables (default: all three).

    ``full`` is accepted for CLI uniformity but changes nothing — these are
    the paper's constant parameter tables.  ``csv_dir`` additionally writes
    one CSV per printed table into that directory.
    """
    emitters = {"table1": table1, "table3": table3, "table4": table4}
    for name in which:
        print(emitters[name]())
        print()
    if csv_dir:
        from repro.experiments.export import write_csv

        for name in which:
            header, rows = _csv_data(name)
            print(f"wrote {write_csv(Path(csv_dir) / f'{name}.csv', header, rows)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(which=sys.argv[1:] or ("table1", "table3", "table4")))
