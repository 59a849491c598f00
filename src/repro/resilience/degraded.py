"""Degraded-mode epoch scheduling: a greedy stand-in for the online LP.

When the whole LP fallback chain fails (every backend timed out, broke
numerically or errored), an epoch must still be scheduled.  The paper's
design already tolerates *partial* epochs through the fake node F, so
:func:`repro.core.epoch.plan_epoch` (the epoch step of both LiPS drivers)
falls back to :func:`greedy_epoch_solution`: a feasible-by-construction
:class:`~repro.core.solution.CoScheduleSolution` the driver can execute
and re-queue from, instead of crashing the run.

The heuristic is the paper's Section IV greedy, adapted to one epoch:

* data stays where it is (no placement moves — degraded mode never spends
  placement dollars on a guess);
* each job's fraction is poured onto machines in ascending marginal-cost
  order (``JM_kl + MS_lm * Size_k``), bounded by the machine's remaining
  epoch CPU capacity, the epoch bandwidth limit (constraint 21) and the
  origin store's remaining capacity;
* whatever cannot be placed lands on the fake node and re-enters the queue
  next epoch — exactly the residual semantics the LP path uses.

The result respects every online-model capacity constraint, so downstream
accounting (cost charging, residual re-queueing, rounding) is oblivious to
whether the LP or the greedy produced the epoch plan.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.assembly import fake_unit_costs
from repro.core.model import SchedulingInput
from repro.core.solution import CoScheduleSolution

#: Fractions below this are treated as zero when pouring work onto machines.
_TOL = 1e-12

#: Model tag marking a solution produced by the degraded path; the epoch
#: controller and LiPS scheduler key their own degraded-epoch counts off
#: this.
DEGRADED_MODEL = "co-online-degraded"


def greedy_epoch_solution(
    inp: SchedulingInput,
    epoch_length: float,
    store_capacity: Optional[np.ndarray] = None,
) -> CoScheduleSolution:
    """Greedy cost-ranked assignment for one epoch (no LP solve).

    Deterministic: jobs are processed in index order and machines in
    ascending marginal-cost order with stable tie-breaks, so the same input
    always yields the same degraded plan.
    """
    if epoch_length <= 0:
        raise ValueError("epoch_length must be positive")
    K, L, S, D = inp.num_jobs, inp.num_machines, inp.num_stores, inp.num_data
    cap_cpu = inp.machine_capacity(epoch_length).astype(float).copy()
    cap_store = np.asarray(
        store_capacity if store_capacity is not None else inp.cap_mb, dtype=float
    ).copy()

    xt_data = np.zeros((K, L, S))
    xt_free = np.zeros((K, L))
    xd = np.zeros((D, S))
    fake = np.zeros(K)

    for k in range(K):
        i = int(inp.job_data[k])
        cpu_k = float(inp.cpu[k])
        if i < 0:
            # input-less job: CPU cost only, no store/bandwidth coupling
            costs = inp.jm[k]
            remaining = 1.0
            for l in np.argsort(costs, kind="stable"):
                if remaining <= _TOL:
                    break
                frac = remaining if cpu_k <= 0 else min(remaining, cap_cpu[l] / cpu_k)
                if frac <= _TOL:
                    continue
                xt_free[k, l] = frac
                cap_cpu[l] -= frac * cpu_k
                remaining -= frac
            fake[k] = remaining
            continue

        m = int(inp.origin[i])
        size_k = float(inp.size_mb[k])
        obj_mb = float(inp.data_size_mb[i])
        # storage bound: the scheduled fraction keeps its data at the origin,
        # occupying fraction * Size(D_i) MB of that store's remaining epoch
        # capacity (matching the LP's constraint (22) accounting)
        already = float(xd[i, m])
        storage_frac = 1.0 if obj_mb <= 0 else already + max(cap_store[m], 0.0) / obj_mb
        target = min(1.0, storage_frac)

        costs = inp.jm[k] + inp.ms_cost[:, m] * size_k
        assigned = 0.0
        for l in np.argsort(costs, kind="stable"):
            remaining = target - assigned
            if remaining <= _TOL:
                break
            frac = remaining if cpu_k <= 0 else min(remaining, cap_cpu[l] / cpu_k)
            if size_k > 0:
                frac = min(frac, epoch_length * inp.bandwidth[l, m] / size_k)
            if frac <= _TOL:
                continue
            xt_data[k, l, m] = frac
            cap_cpu[l] -= frac * cpu_k
            assigned += frac
        if assigned > already:
            cap_store[m] -= (assigned - already) * obj_mb
            xd[i, m] = assigned
        fake[k] = 1.0 - assigned

    np.clip(fake, 0.0, 1.0, out=fake)
    solution = CoScheduleSolution(
        xt_data=xt_data,
        xt_free=xt_free,
        xd=xd,
        fake=fake,
        objective=0.0,
        fake_unit_cost=fake_unit_costs(inp),
        model=DEGRADED_MODEL,
        epoch=epoch_length,
    )
    solution.objective = solution.cost_breakdown(inp).total
    return solution
