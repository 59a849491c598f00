"""Vectorised assembly of the LiPS scheduling LPs.

All three models (Figures 2–4 of the paper) share the same variable layout
and most constraints; :class:`ModelAssembler` builds the sparse matrices for
any of them directly as COO triplets — no per-constraint Python loops over
the (job, machine, store) cross product, which matters at Figure 5 scale
(hundreds of thousands of columns).

Column layout (K jobs of which Kd have input, L machines, S stores, D data
objects):

====================  ===========================  ========================
block                 size                         meaning
====================  ===========================  ========================
``xt_d``              ``len(Kd) * L * S``          x^t_{klm}, input jobs
``xt_n``              ``len(Kn) * L``              x^t_{kl}, input-less jobs
``fake``              ``K``  (online model only)   portion parked on node F
``xd``                ``D * S`` (co models only)   x^d_{ij}
====================  ===========================  ========================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.core.model import SchedulingInput
from repro.core.solution import CoScheduleSolution
from repro.lp.problem import AssembledLP, CsrMatrix

#: Safety multiplier making the fake node dominate any real schedule cost.
FAKE_PRICE_MULTIPLIER: float = 1.0e3


def fake_unit_costs(inp: SchedulingInput) -> np.ndarray:
    """Per-job cost of parking the whole job on the fake node F.

    Must exceed the most expensive *real* way to run the job so that F is
    used only when real capacity is exhausted: we bound the real cost of
    job k by ``cpu_k * max CPU price + size_k * (max MS + max SS price)``
    and scale by :data:`FAKE_PRICE_MULTIPLIER`.
    """
    max_cpu_price = float(np.max(inp.cluster.cpu_cost_vector(), initial=0.0))
    max_transfer = float(np.max(inp.ms_cost, initial=0.0)) + float(np.max(inp.ss_cost, initial=0.0))
    bound = inp.cpu * max_cpu_price + inp.size_mb * max_transfer
    return FAKE_PRICE_MULTIPLIER * bound + 1.0


@dataclass
class _Triplets:
    """Accumulates COO entries plus the <= right-hand side."""

    rows: List[np.ndarray]
    cols: List[np.ndarray]
    vals: List[np.ndarray]
    rhs: List[np.ndarray]
    next_row: int = 0

    @staticmethod
    def empty() -> "_Triplets":
        return _Triplets(rows=[], cols=[], vals=[], rhs=[])

    def add_block(self, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, rhs: np.ndarray) -> None:
        """Append rows whose local indices start at 0; offsets are applied."""
        self.rows.append(rows + self.next_row)
        self.cols.append(cols)
        self.vals.append(vals)
        self.rhs.append(rhs)
        self.next_row += int(rhs.shape[0])

    def build(self, num_cols: int) -> Tuple[CsrMatrix, np.ndarray]:
        if not self.rhs:
            return CsrMatrix.from_coo([], [], [], (0, num_cols)), np.zeros(0)
        rows = np.concatenate(self.rows)
        cols = np.concatenate(self.cols)
        vals = np.concatenate(self.vals)
        rhs = np.concatenate(self.rhs)
        return CsrMatrix.from_coo(rows, cols, vals, (self.next_row, num_cols)), rhs


class ModelAssembler:
    """Builds the LP for one of the three LiPS models.

    Parameters
    ----------
    inp:
        The Table II arrays.
    include_xd:
        Add the data-placement block (co-scheduling models).
    fixed_placement:
        (D, S) known placement for the simple-task model; required when
        ``include_xd`` is False and the workload has data.
    horizon:
        Capacity window — machine uptime for the offline models, the epoch
        length for the online model.
    include_fake:
        Add the fake node F (online model).
    epoch_bandwidth:
        Enforce constraint (21) (transfer time per job/machine <= epoch).
    store_capacity:
        Override per-store MB capacity (the online controller passes the
        *remaining* epoch capacity ``Cap^e``).
    placement_tiebreak:
        Tiny per-unit cost added to every ``x^d`` variable.  Zero-priced
        moves (intra-zone in the EC2 model) otherwise leave the LP free to
        scatter redundant copies; a value orders of magnitude below real
        prices (e.g. 1e-9) breaks those ties toward minimal placement
        without affecting the optimum meaningfully.
    min_cpu_rows:
        Fair-share side constraints: for each ``(job_ids, min_cpu)`` entry
        the scheduled CPU over those jobs must reach ``min_cpu``
        equivalent-CPU-seconds (``sum_k cpu_k * scheduled_frac_k >= rhs``).
        Used by the fairness extension — see :mod:`repro.core.fairness`.
    """

    def __init__(
        self,
        inp: SchedulingInput,
        include_xd: bool,
        fixed_placement: Optional[np.ndarray] = None,
        horizon: Optional[float] = None,
        include_fake: bool = False,
        epoch_bandwidth: bool = False,
        store_capacity: Optional[np.ndarray] = None,
        placement_tiebreak: float = 0.0,
        min_cpu_rows: Optional[List[Tuple[np.ndarray, float]]] = None,
    ) -> None:
        self.inp = inp
        self.include_xd = include_xd
        self.include_fake = include_fake
        self.epoch_bandwidth = epoch_bandwidth
        self.horizon = horizon
        if placement_tiebreak < 0:
            raise ValueError("placement_tiebreak must be >= 0")
        self.placement_tiebreak = placement_tiebreak
        self.min_cpu_rows = min_cpu_rows or []
        self.store_capacity = (
            np.asarray(store_capacity, dtype=float)
            if store_capacity is not None
            else inp.cap_mb
        )
        K, L, S, D = inp.num_jobs, inp.num_machines, inp.num_stores, inp.num_data
        self.K, self.L, self.S, self.D = K, L, S, D
        self.kd = inp.jobs_with_input()
        self.kn = inp.jobs_without_input()
        self.nd, self.nn = len(self.kd), len(self.kn)

        if not include_xd:
            if self.nd and fixed_placement is None:
                raise ValueError("simple-task model needs a fixed data placement")
            self.placement = (
                np.asarray(fixed_placement, dtype=float)
                if fixed_placement is not None
                else np.zeros((D, S))
            )
            if self.placement.shape != (D, S):
                raise ValueError(f"placement must be ({D}, {S})")
        else:
            self.placement = None

        if epoch_bandwidth and np.any(inp.bandwidth <= 0):
            raise ValueError("bandwidth matrix must be strictly positive")

        # -- column offsets --
        self.off_d = 0
        self.off_n = self.nd * L * S
        self.off_f = self.off_n + self.nn * L
        n = self.off_f + (K if include_fake else 0)
        self.off_xd = n
        if include_xd:
            n += D * S
        self.num_cols = n

        self.fake_costs = fake_unit_costs(inp) if include_fake else None

    # -- column index helpers ----------------------------------------------
    def cols_d(self) -> np.ndarray:
        """(nd, L, S) column index of each x^t_{klm} (input jobs)."""
        L, S = self.L, self.S
        return (
            self.off_d
            + np.arange(self.nd)[:, None, None] * (L * S)
            + np.arange(L)[None, :, None] * S
            + np.arange(S)[None, None, :]
        )

    def cols_n(self) -> np.ndarray:
        """(nn, L) column index of each x^t_{kl} (input-less jobs)."""
        return self.off_n + np.arange(self.nn)[:, None] * self.L + np.arange(self.L)[None, :]

    def cols_fake(self) -> np.ndarray:
        """(K,) column index of each job's fake-node variable."""
        return self.off_f + np.arange(self.K)

    def cols_xd(self) -> np.ndarray:
        """(D, S) column index of each x^d_{ij}."""
        return self.off_xd + np.arange(self.D)[:, None] * self.S + np.arange(self.S)[None, :]

    # -- objective ------------------------------------------------------------
    def objective(self) -> np.ndarray:
        """Assemble the objective vector over the column layout."""
        inp = self.inp
        c = np.zeros(self.num_cols)
        if self.nd:
            # (JM_kl + MS_lm * Size_k) per Eq. (1)/(7)+(8)/(17)+(18)
            cost = (
                inp.jm[self.kd][:, :, None]
                + inp.ms_cost[None, :, :] * inp.size_mb[self.kd][:, None, None]
            )
            c[self.off_d : self.off_n] = cost.reshape(-1)
        if self.nn:
            c[self.off_n : self.off_f] = inp.jm[self.kn].reshape(-1)
        if self.include_fake:
            c[self.off_f : self.off_f + self.K] = self.fake_costs
        if self.include_xd and self.D:
            # Eq. (6)/(16) with the Size(D_i) factor (see solution.py note).
            unit = inp.ss_cost[inp.origin, :] * inp.data_size_mb[:, None]
            c[self.off_xd :] = unit.reshape(-1) + self.placement_tiebreak
        return c

    # -- constraints ---------------------------------------------------------
    def build(self) -> AssembledLP:
        """Assemble the sparse constraint system into an AssembledLP."""
        inp = self.inp
        t = _Triplets.empty()
        #: constraint-family name -> (first row, one-past-last row) in A_ub;
        #: lets analyses map solver duals back to model semantics
        self.row_ranges: dict = {}

        def mark(name: str):
            start = t.next_row

            def done() -> None:
                self.row_ranges[name] = (start, t.next_row)

            return done

        colsD = self.cols_d() if self.nd else np.zeros((0, self.L, self.S), dtype=int)
        colsN = self.cols_n() if self.nn else np.zeros((0, self.L), dtype=int)
        LS = self.L * self.S

        # (2)/(10)/(20): coverage, one GE row per job (negated to <=).
        rows_parts, cols_parts = [], []
        for pos, k in enumerate(self.kd):
            rows_parts.append(np.full(LS, k))
            cols_parts.append(colsD[pos].reshape(-1))
        for pos, k in enumerate(self.kn):
            rows_parts.append(np.full(self.L, k))
            cols_parts.append(colsN[pos])
        if self.include_fake:
            rows_parts.append(np.arange(self.K))
            cols_parts.append(self.cols_fake())
        done = mark("job_coverage")
        if rows_parts:
            rows = np.concatenate(rows_parts)
            cols = np.concatenate(cols_parts)
            t.add_block(rows, cols, np.full(rows.shape, -1.0), np.full(self.K, -1.0))
        done()

        # (3)/(13)/(24): coupling per (input job, store).
        done = mark("coupling")
        if self.nd:
            # row index (pos, m) -> pos * S + m; entries over l.
            pos_idx = np.repeat(np.arange(self.nd), self.L * self.S)
            m_idx = np.tile(np.tile(np.arange(self.S), self.L), self.nd)
            rows = pos_idx * self.S + m_idx
            cols = colsD.reshape(-1)
            vals = np.ones(cols.shape)
            if self.include_xd:
                data_ids = inp.job_data[self.kd]
                xd_cols = self.cols_xd()[data_ids, :].reshape(-1)  # (nd*S,)
                rows2 = np.arange(self.nd * self.S)
                rows = np.concatenate([rows, rows2])
                cols = np.concatenate([cols, xd_cols])
                vals = np.concatenate([vals, -np.ones(self.nd * self.S)])
                rhs = np.zeros(self.nd * self.S)
            else:
                data_ids = inp.job_data[self.kd]
                rhs = self.placement[data_ids, :].reshape(-1)
            t.add_block(rows, cols, vals, rhs)
        done()

        # (4)/(12)/(23): machine CPU capacity.
        done = mark("machine_capacity")
        cap = inp.machine_capacity(self.horizon)
        rows_parts, cols_parts, vals_parts = [], [], []
        if self.nd:
            l_idx = np.tile(np.repeat(np.arange(self.L), self.S), self.nd)
            rows_parts.append(l_idx)
            cols_parts.append(colsD.reshape(-1))
            vals_parts.append(np.repeat(inp.cpu[self.kd], LS))
        if self.nn:
            rows_parts.append(np.tile(np.arange(self.L), self.nn))
            cols_parts.append(colsN.reshape(-1))
            vals_parts.append(np.repeat(inp.cpu[self.kn], self.L))
        if rows_parts:
            t.add_block(
                np.concatenate(rows_parts),
                np.concatenate(cols_parts),
                np.concatenate(vals_parts),
                cap.astype(float),
            )
        done()

        if self.include_xd and self.D:
            # (9)/(19): data coverage (negated GE).
            done = mark("data_coverage")
            xd_cols = self.cols_xd()
            rows = np.repeat(np.arange(self.D), self.S)
            t.add_block(
                rows,
                xd_cols.reshape(-1),
                np.full(self.D * self.S, -1.0),
                np.full(self.D, -1.0),
            )
            done()
            # (11)/(22): store capacity.
            done = mark("store_capacity")
            rows = np.tile(np.arange(self.S), self.D)
            vals = np.repeat(inp.data_size_mb, self.S)
            t.add_block(rows, xd_cols.reshape(-1), vals, self.store_capacity.astype(float))
            done()

        # (21): per (input job, machine) transfer time <= epoch.
        done = mark("epoch_bandwidth")
        if self.epoch_bandwidth and self.nd:
            if self.horizon is None:
                raise ValueError("epoch_bandwidth requires a horizon (epoch length)")
            inv_bw = 1.0 / inp.bandwidth  # (L, S)
            coeff = inp.size_mb[self.kd][:, None, None] * inv_bw[None, :, :]
            rows = np.repeat(np.arange(self.nd * self.L), self.S)
            t.add_block(
                rows,
                colsD.reshape(-1),
                coeff.reshape(-1),
                np.full(self.nd * self.L, float(self.horizon)),
            )
        done()

        # fairness side constraints: scheduled CPU per job group >= min_cpu
        # (negated GE rows)
        done = mark("fairness")
        if self.min_cpu_rows:
            kd_pos = {int(k): i for i, k in enumerate(self.kd)}
            kn_pos = {int(k): i for i, k in enumerate(self.kn)}
            for job_ids, min_cpu in self.min_cpu_rows:
                rows_p, cols_p, vals_p = [], [], []
                for k in np.asarray(job_ids, dtype=int):
                    k = int(k)
                    if k in kd_pos:
                        c = colsD[kd_pos[k]].reshape(-1)
                    elif k in kn_pos:
                        c = colsN[kn_pos[k]].reshape(-1)
                    else:
                        raise ValueError(f"min_cpu_rows references unknown job {k}")
                    cols_p.append(c)
                    rows_p.append(np.zeros(c.shape, dtype=int))
                    vals_p.append(np.full(c.shape, -float(inp.cpu[k])))
                t.add_block(
                    np.concatenate(rows_p),
                    np.concatenate(cols_p),
                    np.concatenate(vals_p),
                    np.array([-float(min_cpu)]),
                )
        done()

        a_ub, b_ub = t.build(self.num_cols)
        bounds = np.tile(np.array([0.0, 1.0]), (self.num_cols, 1))
        return AssembledLP(
            c=self.objective(),
            a_ub=a_ub,
            b_ub=b_ub,
            a_eq=CsrMatrix.from_coo([], [], [], (0, self.num_cols)),
            b_eq=np.zeros(0),
            bounds=bounds,
        )

    # -- decoding ----------------------------------------------------------
    def decode(self, x: np.ndarray, objective: float, model: str) -> CoScheduleSolution:
        """Map a raw solution vector back to a :class:`CoScheduleSolution`."""
        K, L, S, D = self.K, self.L, self.S, self.D
        xt_data = np.zeros((K, L, S))
        if self.nd:
            xt_data[self.kd] = x[self.off_d : self.off_n].reshape(self.nd, L, S)
        xt_free = np.zeros((K, L))
        if self.nn:
            xt_free[self.kn] = x[self.off_n : self.off_f].reshape(self.nn, L)
        fake = (
            x[self.off_f : self.off_f + K].copy() if self.include_fake else np.zeros(K)
        )
        if self.include_xd:
            xd = x[self.off_xd :].reshape(D, S).copy() if D else np.zeros((0, S))
        else:
            xd = self.placement.copy()
        # Numerical cleanup: clip tiny negative values from the solver.
        np.clip(xt_data, 0.0, 1.0, out=xt_data)
        np.clip(xt_free, 0.0, 1.0, out=xt_free)
        np.clip(xd, 0.0, 1.0, out=xd)
        np.clip(fake, 0.0, 1.0, out=fake)
        return CoScheduleSolution(
            xt_data=xt_data,
            xt_free=xt_free,
            xd=xd,
            fake=fake,
            objective=objective,
            fake_unit_cost=self.fake_costs,
            model=model,
            epoch=self.horizon if self.epoch_bandwidth else None,
        )
