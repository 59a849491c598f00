"""The LP optimality certificate: hand-built cases and epoch-model mutations."""

from dataclasses import replace

import numpy as np
import pytest

from repro.cluster.builder import build_paper_testbed
from repro.hadoop.sim import HadoopSimulator, SimConfig
from repro.lp.problem import CsrMatrix
from repro.lp.result import LPResult, LPStatus
from repro.lp.scipy_backend import HighsBackend
from repro.lp.simplex import SimplexBackend
from repro.lp.validation import GAP_TOL, PRIMAL_TOL, certify
from repro.perf.bench import CapturingHighs
from repro.schedulers.lips import LipsScheduler
from repro.workload.apps import table4_jobs
from tests.lp.dense import dense_lp


def _model():
    """min x + y  s.t.  x + y >= 1 (cover), x - y <= 0.5, x - y == 0, x <= 2."""
    return dense_lp(
        [1.0, 1.0],
        [[-1.0, -1.0], [1.0, -1.0]],  # cover (written negated), spread
        [-1.0, 0.5],
        [[1.0, -1.0]],  # balance
        [0.0],
        bounds=[(0.0, 2.0), (0.0, np.inf)],
    )


def _result(x, dual_ub=None, dual_eq=None):
    x = np.asarray(x, float)
    return LPResult(
        status=LPStatus.OPTIMAL,
        objective=float(x.sum()),
        x=x,
        dual_ub=None if dual_ub is None else np.asarray(dual_ub, float),
        dual_eq=None if dual_eq is None else np.asarray(dual_eq, float),
    )


def test_feasible_solution_passes():
    # ub rows: -(x + y) <= -1 (cover, negated), x - y <= 0.5; one eq row
    cert = certify(_model(), _result([0.5, 0.5], dual_ub=[-1.0, 0.0], dual_eq=[0.0]))
    assert cert.ok
    assert cert.primal_residual == 0.0 and cert.gap == 0.0


def test_duality_gap_zero_for_same_optimum():
    """Both backends reach the optimum, each proven by its own duals."""
    asm = _model()
    results = [b.solve_assembled(asm) for b in (HighsBackend(), SimplexBackend())]
    for result in results:
        cert = certify(asm, result)
        assert cert.ok and cert.gap <= GAP_TOL, (result.backend, cert)
    assert results[0].objective == pytest.approx(results[1].objective, abs=1e-12)


def test_ge_violation_reported():
    cert = certify(_model(), _result([0.2, 0.2]))
    assert "primal" in cert.failures
    assert cert.primal_residual == pytest.approx(0.6)


def test_le_violation_reported():
    # x - y = 1 > 0.5 (and breaks balance too)
    cert = certify(_model(), _result([1.5, 0.5]))
    assert "primal" in cert.failures
    assert cert.primal_residual == pytest.approx(1.0)


def test_eq_violation_reported():
    # cover and spread hold; balance x - y == 0 is off by 0.1
    cert = certify(_model(), _result([0.6, 0.5]))
    assert "primal" in cert.failures
    assert cert.primal_residual == pytest.approx(0.1)


def test_bound_violation_reported():
    cert = certify(_model(), _result([3.0, 3.0]))
    assert "primal" in cert.failures
    # x = 3 exceeds its upper bound 2 by 1, relative to max(1, 2)
    assert cert.primal_residual == pytest.approx(0.5)


def _big_bound(x_value):
    """max x  s.t.  x <= 1e9 (a bound), at the point ``x_value``."""
    return certify(
        dense_lp([-1.0], bounds=[(0.0, 1e9)]),
        LPResult(status=LPStatus.OPTIMAL, objective=-x_value, x=np.array([x_value])),
    )


def test_bound_tolerance_scales_with_magnitude():
    """A 1e9-scale bound exceeded by well under tol * |bound| is solver noise."""
    cert = _big_bound(1e9 * (1 + 0.5 * PRIMAL_TOL))
    assert "primal" not in cert.failures
    assert cert.primal_residual == pytest.approx(0.5 * PRIMAL_TOL)


def test_bound_violation_beyond_scaled_tol_still_reported():
    assert "primal" in _big_bound(1e9 * (1 + 10 * PRIMAL_TOL)).failures


def test_small_scale_bounds_keep_absolute_tolerance():
    asm = dense_lp([-1.0], bounds=[(0.0, 1.0)])
    res = LPResult(status=LPStatus.OPTIMAL, objective=-1.0 - 1e-5, x=np.array([1.0 + 1e-5]))
    assert "primal" in certify(asm, res).failures


def test_missing_vector_fails():
    res = LPResult(status=LPStatus.OPTIMAL, objective=1.0, x=None)
    cert = certify(_model(), res)
    assert not cert.ok and cert.failures == ("no solution vector",)


def test_duality_gap_requires_optimal():
    """A result that is not optimal has no gap to close: it fails outright."""
    res = LPResult(status=LPStatus.INFEASIBLE, objective=float("nan"), x=None)
    assert certify(_model(), res).failures == ("status infeasible",)


def test_feasible_but_suboptimal_point_fails_the_gap():
    # x = y = 1 is feasible, but the optimum is 1, not 2
    cert = certify(_model(), _result([1.0, 1.0], dual_ub=[-1.0, 0.0], dual_eq=[0.0]))
    assert cert.failures == ("gap",)


def test_wrong_signed_dual_fails():
    cert = certify(_model(), _result([0.5, 0.5], dual_ub=[1.0, 0.0], dual_eq=[0.0]))
    assert "dual_sign" in cert.failures


def test_reduced_cost_sign_on_an_unbounded_column():
    """A free column's reduced cost must vanish."""
    # x >= 1, written -x <= -1; x free
    asm = dense_lp([2.0], [[-1.0]], [-1.0], bounds=[(-np.inf, np.inf)])
    good = LPResult(
        status=LPStatus.OPTIMAL, objective=2.0, x=np.array([1.0]), dual_ub=np.array([-2.0])
    )
    assert certify(asm, good).ok
    bad = LPResult(
        status=LPStatus.OPTIMAL, objective=2.0, x=np.array([1.0]), dual_ub=np.array([-1.0])
    )
    assert "reduced_cost" in certify(asm, bad).failures


def test_objective_value_matches_model():
    """The reported objective must be the model's objective at the point."""
    res = _result([0.5, 0.5], dual_ub=[-1.0, 0.0], dual_eq=[0.0])
    res.objective = 1.5
    assert certify(_model(), res).failures == ("objective",)


def test_objective_constant_is_part_of_the_reported_objective():
    asm = dense_lp([1.0], bounds=[(0.0, 1.0)], objective_constant=10.0)
    cert = certify(asm, HighsBackend().solve_assembled(asm))
    assert cert.ok, cert


def test_nan_in_the_point_fails():
    cert = certify(_model(), _result([np.nan, 0.5], dual_ub=[-1.0, 0.0], dual_eq=[0.0]))
    assert "primal" in cert.failures


# -- epoch models of one small LiPS run ----------------------------------------


@pytest.fixture(scope="module")
def epoch_solves():
    """Every HiGHS solve of a reduced Fig 8-style LiPS simulation.

    The Fig 6(iii)/8 testbed (20 nodes, half c1.medium) with the Table IV
    jobs, at a 300 s epoch so the run plans several epochs.
    """
    backend = CapturingHighs()
    cluster = build_paper_testbed(20, c1_medium_fraction=0.5, seed=0)
    HadoopSimulator(
        cluster,
        table4_jobs(),
        LipsScheduler(epoch_length=300.0, backend=backend),
        SimConfig(placement_seed=7, speculative=False),
    ).run()
    assert len(backend.solves) >= 4
    return backend.solves


def test_every_epoch_model_of_a_lips_run_is_certified(epoch_solves):
    for asm, result in epoch_solves:
        assert result.is_optimal
        cert = certify(asm, result)
        assert cert.ok, (asm.name, cert)


def test_reference_simplex_optimum_is_certified_on_an_epoch_model(epoch_solves):
    asm = min((asm for asm, _ in epoch_solves), key=lambda a: a.a_ub.shape[0])
    cert = certify(asm, SimplexBackend().solve_assembled(asm))
    assert cert.ok, cert


def _drop_row(a, row):
    """``a`` without row ``row``, as a CsrMatrix."""
    sp = a.to_scipy()
    keep = np.arange(a.shape[0]) != row
    kept = sp[keep].tocsr()
    return CsrMatrix(kept.shape, kept.indptr, kept.indices, kept.data)


def _largest_dual(result):
    """``(kind, row)`` of the largest |dual| over both row blocks."""
    ub, eq = np.abs(result.dual_ub), np.abs(result.dual_eq)
    if eq.max(initial=0.0) > ub.max(initial=0.0):
        return "eq", int(eq.argmax())
    return "ub", int(ub.argmax())


def test_cost_mutation_fails_the_certificate(epoch_solves):
    """Raise by 1 % the cost of the column that carries the most cost."""
    for asm, result in epoch_solves:
        j = int(np.argmax(np.abs(asm.c * result.x)))
        c = asm.c.copy()
        c[j] *= 1.01
        assert not certify(replace(asm, c=c), result).ok, asm.name


def test_dual_sign_flip_fails_the_certificate(epoch_solves):
    for asm, result in epoch_solves:
        kind, row = _largest_dual(result)
        dual_ub, dual_eq = result.dual_ub.copy(), result.dual_eq.copy()
        (dual_ub if kind == "ub" else dual_eq)[row] *= -1.0
        flipped = replace(result, dual_ub=dual_ub, dual_eq=dual_eq)
        assert not certify(asm, flipped).ok, asm.name


def test_dropped_row_fails_the_certificate(epoch_solves):
    """Drop the row with the largest |dual|, and its dual with it."""
    for asm, result in epoch_solves:
        kind, row = _largest_dual(result)
        if kind == "ub":
            mutated = replace(
                asm, a_ub=_drop_row(asm.a_ub, row), b_ub=np.delete(asm.b_ub, row)
            )
            duals = dict(dual_ub=np.delete(result.dual_ub, row), dual_eq=result.dual_eq)
        else:
            mutated = replace(
                asm, a_eq=_drop_row(asm.a_eq, row), b_eq=np.delete(asm.b_eq, row)
            )
            duals = dict(dual_ub=result.dual_ub, dual_eq=np.delete(result.dual_eq, row))
        assert not certify(mutated, replace(result, **duals)).ok, asm.name
