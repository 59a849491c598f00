"""The direct HiGHS call is bit-identical to ``scipy.optimize.linprog``.

``HighsBackend`` hands HiGHS the model and options
``linprog(method="highs")`` would, skipping only linprog's plumbing.  These
tests keep linprog as the oracle: on random LPs, on Figure 4 epoch models
and on a LiPS zone-aggregated model, status, ``x``, objective, duals and
iteration count must be exactly equal — not merely close.  They also pin
the HiGHS-status table and the post-solve feasibility guard to linprog's,
with one deliberate exception: ``kTimeLimit`` is ``TIME_LIMIT`` (linprog
reports it as its iteration-limit code 1), so a solve stopped by
``HighsBackend(time_limit_s=...)`` is classified as a timeout.
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog
from scipy.optimize._highspy._core import HighsModelStatus
from scipy.optimize._linprog_highs import _highs_to_scipy_status_message
from scipy.optimize._linprog_util import _check_result

from repro.cluster.builder import build_paper_testbed
from repro.core.assembly import ModelAssembler
from repro.core.model import SchedulingInput
from repro.lp import scipy_backend
from repro.lp.problem import AssembledLP
from repro.lp.result import LPResult, LPStatus
from repro.lp.scipy_backend import FEAS_TOL, STATUS_MAP, HighsBackend, feasible_point
from repro.schedulers.lips import build_zone_aggregate
from repro.workload.job import DataObject, Job, Workload
from tests.core.test_online_backend_contract import (
    AMPLE_EPOCH_S,
    POOL,
    TIGHT_EPOCH_S,
    _cluster,
    _input_for,
)
from tests.lp.dense import dense_lp

#: linprog's integer status codes → normalised statuses
LINPROG_STATUS = {
    0: LPStatus.OPTIMAL,
    1: LPStatus.ITERATION_LIMIT,
    2: LPStatus.INFEASIBLE,
    3: LPStatus.UNBOUNDED,
    4: LPStatus.NUMERICAL,
}


def _oracle(asm) -> LPResult:
    """Solve through ``linprog(method="highs")``, normalised like the backend."""
    res = linprog(
        c=asm.c,
        A_ub=asm.a_ub if asm.a_ub.shape[0] else None,
        b_ub=asm.b_ub if asm.b_ub.shape[0] else None,
        A_eq=asm.a_eq if asm.a_eq.shape[0] else None,
        b_eq=asm.b_eq if asm.b_eq.shape[0] else None,
        bounds=asm.bounds,
        method="highs",
    )
    status = LINPROG_STATUS[res.status]
    optimal = status is LPStatus.OPTIMAL
    return LPResult(
        status=status,
        objective=float(res.fun) + asm.objective_constant if optimal else float("nan"),
        x=res.x,
        iterations=int(res.nit or 0),
        dual_ub=res.ineqlin.marginals if optimal else None,
        dual_eq=res.eqlin.marginals if optimal else None,
    )


def _assert_bit_identical(asm) -> LPResult:
    got = HighsBackend().solve_assembled(asm)
    want = _oracle(asm)
    assert got.status is want.status, (got.message, want.status)
    assert got.iterations == want.iterations
    assert np.array_equal(got.objective, want.objective, equal_nan=True)
    for field in ("x", "dual_ub", "dual_eq"):
        a, b = getattr(got, field), getattr(want, field)
        assert (a is None) == (b is None), field
        if a is not None:
            assert np.array_equal(a, b), field
    return got


# -- random LPs ------------------------------------------------------------

_coef = st.integers(-3, 3).map(float)
_lower = st.sampled_from([-np.inf, -2.0, 0.0, 1.0])
_upper = st.sampled_from([np.inf, 0.0, 2.5, 5.0])


@st.composite
def random_lps(draw):
    """Small LPs mixing <= and = rows, finite and infinite bounds.

    Zero coefficients leave rows and columns empty; the mix produces
    optimal, infeasible and unbounded models.
    """
    n = draw(st.integers(1, 5))
    m_ub = draw(st.integers(0, 4))
    m_eq = draw(st.integers(0, 2))

    def vec(size, elements=_coef):
        return draw(st.lists(elements, min_size=size, max_size=size))

    bounds = []
    for _ in range(n):
        lo, hi = draw(_lower), draw(_upper)
        bounds.append((lo, hi) if lo <= hi else (hi, lo))
    return dense_lp(
        vec(n),
        vec(m_ub * n),
        vec(m_ub, st.integers(-4, 6).map(float)),
        vec(m_eq * n),
        vec(m_eq, st.integers(-3, 3).map(float)),
        bounds,
        objective_constant=1.5,
    )


@given(asm=random_lps())
@settings(max_examples=300, deadline=None)
def test_random_lps_bit_identical_to_linprog(asm):
    _assert_bit_identical(asm)


@pytest.mark.parametrize(
    "asm, status",
    [
        # x + y = 4 with x, y in [0, 1]
        (
            dense_lp([1, 1], [], [], [1, 1], [4], [(0, 1), (0, 1)], objective_constant=1.5),
            LPStatus.INFEASIBLE,
        ),
        # min -x, x >= 0 free above, with an empty <= row
        (
            dense_lp([-1, 0], [0, 0], [3], [], [], [(0, np.inf), (0, 1)], objective_constant=1.5),
            LPStatus.UNBOUNDED,
        ),
        # a column in no row, a free variable pinned by an equality
        (
            dense_lp(
                [1, 2, 0], [1, 0, 0, 0, -1, 0], [3, -1], [1, 1, 0], [2],
                [(-np.inf, np.inf), (0, 5), (0, 0)], objective_constant=1.5,
            ),
            LPStatus.OPTIMAL,
        ),
    ],
    ids=["infeasible", "unbounded", "optimal-mixed"],
)
def test_edge_cases_bit_identical(asm, status):
    assert _assert_bit_identical(asm).status is status


# -- Figure 4 epoch models -------------------------------------------------


def _online_model(inp, epoch_length, bandwidth=True) -> AssembledLP:
    """The Figure 4 model exactly as ``solve_co_online`` assembles it."""
    return ModelAssembler(
        inp,
        include_xd=True,
        horizon=epoch_length,
        include_fake=True,
        epoch_bandwidth=bandwidth,
    ).build()


@given(
    job_ids=st.sets(st.sampled_from(POOL), min_size=1, max_size=len(POOL)),
    tight=st.booleans(),
)
@settings(max_examples=20, deadline=None)
def test_epoch_models_bit_identical(job_ids, tight):
    inp = _input_for(_cluster(), tuple(sorted(job_ids)))
    asm = _online_model(inp, TIGHT_EPOCH_S if tight else AMPLE_EPOCH_S)
    assert _assert_bit_identical(asm).status is LPStatus.OPTIMAL


def test_zone_aggregated_lips_model_bit_identical():
    cluster = build_paper_testbed(9, c1_medium_fraction=1 / 3, seed=2)
    zone_cluster = build_zone_aggregate(cluster)
    data = [
        DataObject(data_id=0, name="a", size_mb=640.0, origin_store=0),
        DataObject(data_id=1, name="b", size_mb=320.0, origin_store=2),
    ]
    jobs = [
        Job(job_id=0, name="scan", tcp=0.4, data_ids=[0], num_tasks=10),
        Job(job_id=1, name="count", tcp=1.4, data_ids=[1], num_tasks=5),
        Job(job_id=2, name="pi", tcp=0.0, num_tasks=2, cpu_seconds_noinput=300.0),
    ]
    assert zone_cluster.num_stores == 3  # one virtual store per zone
    inp = SchedulingInput.from_parts(zone_cluster, Workload(jobs=jobs, data=data))
    for epoch_length in (60.0, 600.0):
        asm = _online_model(inp, epoch_length)
        assert _assert_bit_identical(asm).status is LPStatus.OPTIMAL


# -- status table and feasibility guard ------------------------------------


#: where the status table departs from linprog's on purpose
DEPARTURES = {HighsModelStatus.kTimeLimit: LPStatus.TIME_LIMIT}


def test_status_table_pinned():
    assert STATUS_MAP == {
        HighsModelStatus.kOptimal: LPStatus.OPTIMAL,
        HighsModelStatus.kTimeLimit: LPStatus.TIME_LIMIT,
        HighsModelStatus.kIterationLimit: LPStatus.ITERATION_LIMIT,
        HighsModelStatus.kInfeasible: LPStatus.INFEASIBLE,
        HighsModelStatus.kModelError: LPStatus.INFEASIBLE,
        HighsModelStatus.kUnbounded: LPStatus.UNBOUNDED,
    }


@pytest.mark.parametrize("status", list(HighsModelStatus.__members__.values()), ids=str)
def test_every_highs_status_maps_as_linprog_does(status):
    scipy_code, _ = _highs_to_scipy_status_message(status, "")
    want = DEPARTURES.get(status, LINPROG_STATUS[scipy_code])
    assert STATUS_MAP.get(status, LPStatus.NUMERICAL) is want
    if status in DEPARTURES:
        assert LINPROG_STATUS[scipy_code] is LPStatus.ITERATION_LIMIT


def test_unbounded_or_infeasible_is_numerical():
    assert HighsModelStatus.kUnboundedOrInfeasible not in STATUS_MAP


_BOUNDS = np.array([[0.0, 1.0], [-np.inf, np.inf], [2.0, np.inf]])
_X = np.array([0.5, -7.0, 2.0])


@pytest.mark.parametrize(
    "x, objective, slack, con",
    [
        (_X, 1.0, np.array([0.0, 3.0]), np.array([0.0])),  # feasible
        (_X + [0.0, 0.0, -0.5 * FEAS_TOL], 1.0, np.array([-0.5 * FEAS_TOL]), np.array([0.5 * FEAS_TOL])),
        (_X + [1.0 + 2 * FEAS_TOL - 0.5, 0.0, 0.0], 1.0, np.array([1.0]), np.array([])),  # bound
        (_X + [0.0, 0.0, -2 * FEAS_TOL], 1.0, np.array([1.0]), np.array([])),  # lower bound
        (_X, 1.0, np.array([1.0, -2 * FEAS_TOL]), np.array([])),  # <= row
        (_X, 1.0, np.array([1.0]), np.array([-2 * FEAS_TOL])),  # equality row
        (_X + [np.nan, 0.0, 0.0], 1.0, np.array([1.0]), np.array([])),
        (_X, float("nan"), np.array([1.0]), np.array([])),
        (_X, 1.0, np.array([np.nan]), np.array([])),
        (_X, 1.0, np.array([1.0]), np.array([np.nan])),
    ],
    ids=[
        "feasible", "within-tol", "upper-bound", "lower-bound", "ub-row", "eq-row",
        "nan-x", "nan-objective", "nan-slack", "nan-con",
    ],
)
def test_feasibility_guard_matches_linprog(x, objective, slack, con):
    status, _ = _check_result(x, objective, 0, slack, con, _BOUNDS, 1e-9, "", None)
    assert feasible_point(x, objective, slack, con, _BOUNDS) is (status == 0)


def test_failed_guard_downgrades_optimal(monkeypatch):
    asm = dense_lp([1, 1], [-1, -1], [-1], [], [], [(0, 1), (0, 1)], objective_constant=1.5)
    assert HighsBackend().solve_assembled(asm).is_optimal
    monkeypatch.setattr(scipy_backend, "feasible_point", lambda *args: False)
    res = HighsBackend().solve_assembled(asm)
    assert res.status is LPStatus.NUMERICAL
    assert np.isnan(res.objective)
    assert res.x is not None and res.dual_ub is None and res.dual_eq is None


# -- statelessness ---------------------------------------------------------


def test_backend_is_stateless_across_threads():
    """One shared backend, concurrent solves: every result is the serial one."""
    inp = _input_for(_cluster(), POOL)
    models = [_online_model(inp, e) for e in (AMPLE_EPOCH_S, TIGHT_EPOCH_S)] * 3
    backend = HighsBackend()
    serial = [backend.solve_assembled(asm).x for asm in models]
    results = [None] * len(models)

    def work(i):
        results[i] = backend.solve_assembled(models[i]).x

    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(models))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(np.array_equal(a, b) for a, b in zip(serial, results))
    assert vars(backend) == {"time_limit_s": None}  # configuration only


def test_time_limit_is_enforced_by_highs():
    asm = dense_lp([1, 2, 3], [[-1, -1, -1]], [-3], [], [], [(0, 10)] * 3, objective_constant=1.5)
    res = HighsBackend(time_limit_s=1e-9).solve_assembled(asm)
    assert res.status is LPStatus.TIME_LIMIT
    assert res.message == "Time limit reached" and res.x is None
    # a budget the solve never reaches leaves the result untouched
    roomy = HighsBackend(time_limit_s=60.0).solve_assembled(asm)
    plain = HighsBackend().solve_assembled(asm)
    assert roomy.status is LPStatus.OPTIMAL
    assert np.array_equal(roomy.x, plain.x) and roomy.objective == plain.objective
