"""Fairness and utilization — the paper's closing claims.

The conclusion asserts LiPS "also demonstrate[s] its significant fairness
and utilization improvements" without a dedicated figure; this experiment
makes both measurable:

* **Fairness** — a contended epoch with three user pools, solved with and
  without the :class:`~repro.core.fairness.FairShareConfig` guarantee;
  reported as per-pool fulfilment ratios and Jain's index.
* **Utilization** — the Table IV testbed comparison; reported as busy
  slot-seconds over available slot-seconds, both cluster-wide and over the
  machines a scheduler actually used.  LiPS concentrates work on few cheap
  nodes and drives them near saturation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional


from repro.cluster.builder import build_paper_testbed
from repro.core.co_online import solve_co_online
from repro.core.fairness import FairShareConfig, fulfillment_ratios, jains_index
from repro.core.model import SchedulingInput
from repro.experiments.common import DEFAULT, DELAY, LIPS, compare_schedulers, shared
from repro.experiments.report import format_table
from repro.workload.apps import make_job, table4_jobs
from repro.workload.job import DataObject, Workload


def _contended_workload(num_stores: int) -> Workload:
    """Three pools with very different demand profiles."""
    data = []
    jobs = []

    def add(app: str, pool: str, input_gb: float, tasks: int) -> None:
        d = DataObject(
            data_id=len(data),
            name=f"{pool}-input-{len(data)}",
            size_mb=input_gb * 1024.0,
            origin_store=len(data) % num_stores,
        )
        data.append(d)
        jobs.append(
            make_job(app, len(jobs), data_ids=[d.data_id], num_tasks=tasks, pool=pool)
        )

    add("wordcount", "analytics", 8.0, 128)   # CPU heavy
    add("wordcount", "analytics", 8.0, 128)
    add("grep", "interactive", 4.0, 64)       # I/O light
    add("stress2", "batch", 8.0, 128)
    add("stress2", "batch", 8.0, 128)
    return Workload(jobs=jobs, data=data)


@dataclass
class FairnessResult:
    ratios_plain: Dict[str, float]
    ratios_fair: Dict[str, float]
    jain_plain: float
    jain_fair: float
    cost_plain: float
    cost_fair: float
    #: LP objectives including the fake-node penalty — the quantity the
    #: added constraints provably cannot decrease
    objective_plain: float = 0.0
    objective_fair: float = 0.0


def run_fairness(
    total_nodes: int = 12,
    epoch_length: float = 120.0,
    fulfillment: float = 0.9,
    seed: int = 0,
    backend: Optional[object] = None,
) -> FairnessResult:
    """One contended epoch, with and without the fair-share guarantee."""
    cluster = build_paper_testbed(total_nodes, c1_medium_fraction=0.5, seed=seed)
    inp = SchedulingInput.from_parts(cluster, _contended_workload(cluster.num_stores))
    cfg = dict(epoch_length=epoch_length, backend=backend, enforce_bandwidth=False)
    plain = solve_co_online(inp, **cfg)
    fair = solve_co_online(inp, **cfg, fairness=FairShareConfig(fulfillment=fulfillment))
    rp = fulfillment_ratios(inp, plain)
    rf = fulfillment_ratios(inp, fair)
    return FairnessResult(
        ratios_plain=rp,
        ratios_fair=rf,
        jain_plain=jains_index(list(rp.values())),
        jain_fair=jains_index(list(rf.values())),
        cost_plain=plain.cost_breakdown(inp).real_total,
        cost_fair=fair.cost_breakdown(inp).real_total,
        objective_plain=plain.objective,
        objective_fair=fair.objective,
    )


@dataclass
class UtilizationResult:
    total_utilization: Dict[str, float]
    rental_utilization: Dict[str, float]
    active_machines: Dict[str, int]


def run_utilization(
    total_nodes: int = 18,
    epoch_length: float = 3600.0,
    seed: int = 1,
    placement_seed: int = 7,
    backend: Optional[object] = None,
) -> UtilizationResult:
    """Busy/available slot-seconds for the Table IV comparison.

    The headline effect is *consolidation*: with capacity headroom LiPS
    serves the whole workload from a handful of cheap machines
    (``active_machines``), where the locality baselines keep every node
    busy.  In an instance-hour billing model the idle nodes would simply
    not be rented.
    """
    cluster = build_paper_testbed(total_nodes, c1_medium_fraction=0.5, seed=seed)
    comp = compare_schedulers(
        cluster, table4_jobs(), epoch_length=epoch_length,
        placement_seed=placement_seed, backend=backend,
    )
    slots_by_machine = {m.machine_id: m.map_slots for m in cluster.machines}
    total_slots = sum(slots_by_machine.values())
    total_u: Dict[str, float] = {}
    rental_u: Dict[str, float] = {}
    active_n: Dict[str, int] = {}
    for name, m in comp.metrics.items():
        total_u[name] = m.utilization(total_slots)
        rental_u[name] = m.rental_utilization(slots_by_machine)
        active_n[name] = sum(1 for cpu in m.machine_cpu_seconds.values() if cpu > 1.0)
    return UtilizationResult(
        total_utilization=total_u,
        rental_utilization=rental_u,
        active_machines=active_n,
    )


def main(full: bool = False, csv_dir: Optional[str] = None) -> int:
    """Print the fairness and utilization tables."""
    fr = shared(run_fairness)
    pools = sorted(fr.ratios_plain)
    rows = [
        (p, f"{fr.ratios_plain[p]:.2f}", f"{fr.ratios_fair[p]:.2f}") for p in pools
    ]
    rows.append(("min fulfilment", f"{min(fr.ratios_plain.values()):.3f}", f"{min(fr.ratios_fair.values()):.3f}"))
    rows.append(("Jain index", f"{fr.jain_plain:.3f}", f"{fr.jain_fair:.3f}"))
    rows.append(("epoch cost $", f"{fr.cost_plain:.4f}", f"{fr.cost_fair:.4f}"))
    print(
        format_table(
            ["pool", "no fair-share", "with fair-share"],
            rows,
            title="Fairness — per-pool fulfilment in a contended epoch",
        )
    )
    print()
    ur = shared(run_utilization)
    rows = [
        (
            name,
            f"{100*ur.total_utilization[name]:.1f}%",
            f"{100*ur.rental_utilization[name]:.1f}%",
            ur.active_machines[name],
        )
        for name in (DEFAULT, DELAY, LIPS)
    ]
    print(
        format_table(
            ["scheduler", "cluster-wide util", "rented-instance util", "active nodes"],
            rows,
            title="Utilization — Table IV testbed (rental = instance-hour view)",
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
