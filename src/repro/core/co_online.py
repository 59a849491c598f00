"""Online epoch-based co-scheduling — paper Figure 4.

Invoked once per epoch ``e`` over the jobs currently queued.  Differences
from the offline co-scheduling model:

* machine capacity becomes ``TP(M_l) * e`` (constraint 23);
* store capacity becomes the *remaining* epoch capacity ``Cap^e`` (22);
* constraint (21) bounds each (job, machine) pair's data-transfer time by
  the epoch length;
* a **fake node F** of unlimited capacity and prohibitive cost guarantees
  feasibility; fractions assigned to F are re-queued by the epoch
  controller rather than executed.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.assembly import ModelAssembler
from repro.core.model import SchedulingInput
from repro.core.solution import CoScheduleSolution
from repro.lp.result import LPStatus


class OnlineModelUnsolved(RuntimeError):
    """The backend raised, or ended the epoch LP without an optimum."""


def solve_co_online(
    inp: SchedulingInput,
    *,
    epoch_length: float,
    backend: Optional[object] = None,
    store_capacity: Optional[np.ndarray] = None,
    fairness: Optional[object] = None,
    enforce_bandwidth: bool = True,
) -> CoScheduleSolution:
    """Solve one epoch of the Figure 4 model.

    ``epoch_length`` is the paper's ``e`` — the cost/performance dial
    (Section VI-B, Figure 8).  ``store_capacity`` carries ``Cap^e``,
    ``fairness`` a :class:`~repro.core.fairness.FairShareConfig` whose
    per-pool rows join the model, and ``enforce_bandwidth`` toggles
    constraint (21).

    Always feasible thanks to the fake node (unless storage is exhausted or
    a fair-share guarantee collides with the bandwidth constraint); callers
    inspect ``solution.fake`` for the residual work to re-queue.  A backend
    exception or non-optimal status raises :class:`OnlineModelUnsolved`,
    which :func:`repro.core.epoch.plan_epoch` turns into a greedy plan.
    """
    if epoch_length <= 0:
        raise ValueError("epoch_length must be positive")
    if backend is None:
        from repro.lp import DEFAULT_BACKEND

        backend = DEFAULT_BACKEND
    min_cpu_rows = None
    if fairness is not None:
        from repro.core.fairness import fairness_rows

        min_cpu_rows = fairness_rows(inp, epoch_length, fairness)
    assembler = ModelAssembler(
        inp,
        include_xd=True,
        horizon=epoch_length,
        include_fake=True,
        epoch_bandwidth=enforce_bandwidth,
        store_capacity=store_capacity,
        min_cpu_rows=min_cpu_rows,
    )
    asm = assembler.build()
    asm.name = "co-online"
    try:
        result = backend.solve_assembled(asm)
    except Exception as exc:
        raise OnlineModelUnsolved(f"online model not solvable: {exc!r}") from exc
    if result.status is not LPStatus.OPTIMAL:
        # With the fake node the model is feasible unless *storage* is
        # exhausted; surface that explicitly.
        raise OnlineModelUnsolved(
            f"online model not solvable: {result.status.value} ({result.message}); "
            "storage capacity may be exhausted"
        )
    return assembler.decode(result.x, result.objective, model="co-online")
