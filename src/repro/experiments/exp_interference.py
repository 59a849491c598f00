"""Interference ablation — the cost of ignoring co-location contention.

Section I of the paper: "scheduling multiple network-I/O intensive tasks on
the same hardware may result in network saturation", the motivation the
interference-aware related work (ILA, TRACON) attacks.  This experiment
turns the simulator's interference model on in steps and measures how each
scheduler's makespan degrades — LiPS' consolidation makes it *more*
exposed: packing the cheap nodes means more co-runners per node.

Dollar cost stays flat by construction (per-CPU-second pricing bills work,
not wall time), which is itself the paper's argument: interference is a
*performance* risk, not a cost risk, and LiPS explicitly trades the former.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.cluster.builder import build_paper_testbed
from repro.experiments.common import shared
from repro.experiments.report import format_table
from repro.hadoop.interference import InterferenceModel
from repro.hadoop.sim import HadoopSimulator, SimConfig
from repro.schedulers import DelayScheduler, LipsScheduler
from repro.workload.apps import table4_jobs

DEFAULT_PENALTIES: Sequence[float] = (0.0, 0.1, 0.2, 0.4)


@dataclass
class InterferenceResult:
    penalties: Sequence[float]
    makespans: Dict[str, List[float]]  # scheduler -> makespan per penalty
    costs: Dict[str, List[float]]

    def slowdown(self, scheduler: str) -> float:
        """Makespan at the worst penalty over the interference-free run."""
        series = self.makespans[scheduler]
        return series[-1] / series[0] if series[0] else float("inf")


def run(
    penalties: Sequence[float] = DEFAULT_PENALTIES,
    total_nodes: int = 12,
    epoch_length: float = 1800.0,
    seed: int = 1,
    placement_seed: int = 7,
    backend: Optional[object] = None,
) -> InterferenceResult:
    """Sweep interference penalties over the scheduler line-up."""
    cluster = build_paper_testbed(total_nodes, c1_medium_fraction=0.5, seed=seed)
    w = table4_jobs()
    lineup = {
        "delay": (lambda: DelayScheduler(), True),
        "lips": (lambda: LipsScheduler(epoch_length=epoch_length, backend=backend), False),
    }
    makespans: Dict[str, List[float]] = {k: [] for k in lineup}
    costs: Dict[str, List[float]] = {k: [] for k in lineup}
    for penalty in penalties:
        model = InterferenceModel(cpu_penalty=penalty, io_penalty=penalty) if penalty else None
        for name, (factory, speculative) in lineup.items():
            sim = HadoopSimulator(
                cluster,
                w,
                factory(),
                SimConfig(
                    placement_seed=placement_seed,
                    speculative=speculative,
                    interference=model,
                ),
            )
            m = sim.run().metrics
            makespans[name].append(m.makespan)
            costs[name].append(m.total_cost)
    return InterferenceResult(penalties=list(penalties), makespans=makespans, costs=costs)


def main(full: bool = False, csv_dir: Optional[str] = None) -> int:
    """Print the interference ablation table."""
    res = shared(run)
    rows = []
    for i, p in enumerate(res.penalties):
        rows.append(
            (
                f"{p:g}",
                f"{res.makespans['delay'][i]:.0f}",
                f"{res.makespans['lips'][i]:.0f}",
                f"{res.costs['lips'][i]:.4f}",
            )
        )
    print(
        format_table(
            ["penalty/co-runner", "delay makespan s", "LiPS makespan s", "LiPS $"],
            rows,
            title="Interference ablation — contention stretches time, not dollars",
        )
    )
    for name in ("delay", "lips"):
        print(f"{name}: worst-case slowdown x{res.slowdown(name):.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
