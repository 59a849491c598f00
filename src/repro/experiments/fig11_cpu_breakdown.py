"""Figure 11 — accumulated CPU time per node under two epoch lengths.

Same testbed as Figure 6; LiPS runs once with a 400 s epoch and once with
600 s.  The paper: "Shorter epoch length results in higher parallelism and
faster job executions (but also higher cost)" — with the longer epoch the
accumulated CPU time concentrates on the cheap (c1.medium) nodes, with the
shorter epoch it spreads across the cluster.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.cluster.builder import Cluster, build_paper_testbed
from repro.experiments.common import shared
from repro.experiments.report import format_table
from repro.hadoop.sim import HadoopSimulator, SimConfig
from repro.schedulers import LipsScheduler
from repro.workload.apps import table4_jobs

PAPER_EPOCHS: Sequence[float] = (400.0, 600.0)


@dataclass
class Fig11Result:
    cluster: Cluster
    epochs: Sequence[float]
    cpu_per_node: Dict[float, np.ndarray]  # epoch -> per-node CPU seconds
    costs: Dict[float, float]
    makespans: Dict[float, float]

    def active_nodes(self, epoch: float, threshold_s: float = 1.0) -> int:
        """How many nodes did meaningful work (the parallelism measure)."""
        return int(np.sum(self.cpu_per_node[epoch] > threshold_s))

    def concentration(self, epoch: float) -> float:
        """Share of CPU time on the busiest quartile of nodes."""
        cpu = np.sort(self.cpu_per_node[epoch])[::-1]
        total = cpu.sum()
        if total <= 0:
            return 0.0
        q = max(1, len(cpu) // 4)
        return float(cpu[:q].sum() / total)


def run(
    epochs: Sequence[float] = PAPER_EPOCHS,
    total_nodes: int = 20,
    c1_fraction: float = 0.5,
    seed: int = 0,
    placement_seed: int = 7,
    backend: Optional[object] = None,
    workload=None,
) -> Fig11Result:
    """Run LiPS at each epoch length, collecting per-node CPU time."""
    cluster = build_paper_testbed(total_nodes, c1_medium_fraction=c1_fraction, seed=seed)
    w = workload if workload is not None else table4_jobs()
    cpu_per_node: Dict[float, np.ndarray] = {}
    costs: Dict[float, float] = {}
    makespans: Dict[float, float] = {}
    for e in epochs:
        sim = HadoopSimulator(
            cluster,
            w,
            LipsScheduler(epoch_length=e, backend=backend),
            SimConfig(placement_seed=placement_seed, speculative=False),
        )
        m = sim.run().metrics
        cpu_per_node[e] = m.machine_cpu_vector(cluster.num_machines)
        costs[e] = m.total_cost
        makespans[e] = m.makespan
    return Fig11Result(
        cluster=cluster,
        epochs=list(epochs),
        cpu_per_node=cpu_per_node,
        costs=costs,
        makespans=makespans,
    )


def main(full: bool = False, csv_dir: Optional[str] = None) -> int:
    """Print the Figure 11 per-node breakdown."""
    res = shared(run)
    headers = ["node", "type", "$/cpu-s"] + [f"CPU-s @e={e:.0f}" for e in res.epochs]
    rows: List[List[str]] = []
    for m in res.cluster.machines:
        rows.append(
            [
                m.name,
                m.instance_type,
                f"{m.cpu_cost:.2e}",
            ]
            + [f"{res.cpu_per_node[e][m.machine_id]:.0f}" for e in res.epochs]
        )
    print(
        format_table(
            headers,
            rows,
            title="Figure 11 — accumulated CPU time per node "
            "(longer epoch concentrates load on cheap nodes)",
        )
    )
    for e in res.epochs:
        print(
            f"epoch {e:.0f}s: active nodes={res.active_nodes(e)}, "
            f"top-quartile share={100*res.concentration(e):.1f}%, "
            f"cost=${res.costs[e]:.4f}, makespan={res.makespans[e]:.0f}s"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
