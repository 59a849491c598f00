"""Property-based cross-validation of the two LP backends.

The from-scratch simplex and HiGHS must agree on status and, when optimal,
on objective value — over randomly generated bounded LPs.  Every optimum
either backend returns must also pass the duality certificate, so the
reference simplex's duals are part of its contract too.
"""

from dataclasses import replace

from hypothesis import given, settings, strategies as st

from repro.lp.result import LPStatus
from repro.lp.scipy_backend import HighsBackend
from repro.lp.simplex import SimplexBackend
from repro.lp.validation import certify
from tests.lp.dense import dense_lp

# Coefficients are either exactly zero or of sane magnitude.  Hypothesis
# otherwise loves subnormal values (1e-270 coefficients, 1e-118 rhs), where
# HiGHS's absolute feasibility tolerance (1e-7) and our equilibrated
# simplex's exact row treatment legitimately disagree — those problems are
# outside any solver's contract.
finite = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.01, max_value=5.0),
    st.floats(min_value=-5.0, max_value=-0.01),
)


@st.composite
def bounded_lp(draw):
    """A random LP with box-bounded variables and <=/>=/== rows."""
    n = draw(st.integers(min_value=1, max_value=5))
    m = draw(st.integers(min_value=0, max_value=5))
    upper = [draw(st.floats(min_value=0.1, max_value=5.0)) for _ in range(n)]
    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    for _ in range(m):
        coeffs = [draw(finite) for _ in range(n)]
        sense = draw(st.sampled_from(["<=", ">=", "=="]))
        # keep rhs near the feasible region to hit all three statuses
        point = [draw(st.floats(min_value=0.0, max_value=1.0)) * u for u in upper]
        rhs = sum(c * p for c, p in zip(coeffs, point)) + draw(
            st.floats(min_value=-1.0, max_value=1.0)
        )
        if sense == "==":
            a_eq.append(coeffs)
            b_eq.append(rhs)
        elif sense == "<=":
            a_ub.append(coeffs)
            b_ub.append(rhs)
        else:  # a >= row, written negated
            a_ub.append([-c for c in coeffs])
            b_ub.append(-rhs)
    c = [draw(finite) for _ in range(n)]
    return dense_lp(c, a_ub, b_ub, a_eq, b_eq, [(0.0, u) for u in upper], name="prop")


@given(bounded_lp())
@settings(max_examples=60, deadline=None)
def test_backends_agree(lp):
    a = HighsBackend().solve_assembled(lp)
    b = SimplexBackend().solve_assembled(lp)
    # box-bounded: unbounded is impossible; both must agree feasible/not
    assert a.status in (LPStatus.OPTIMAL, LPStatus.INFEASIBLE)
    assert a.status == b.status
    if a.is_optimal:
        scale = max(1.0, abs(a.objective))
        assert abs(a.objective - b.objective) <= 1e-6 * scale


@given(bounded_lp())
@settings(max_examples=60, deadline=None)
def test_optimal_solutions_are_feasible(lp):
    for backend in (HighsBackend(), SimplexBackend()):
        res = backend.solve_assembled(lp)
        if res.is_optimal:
            cert = certify(lp, res)
            assert cert.ok, (backend.name, cert)


@given(bounded_lp(), st.floats(min_value=0.1, max_value=10.0))
@settings(max_examples=40, deadline=None)
def test_objective_scaling_invariance(lp, scale):
    """Scaling the objective scales the optimum; the argmin set is stable."""
    base = HighsBackend().solve_assembled(lp)
    scaled = HighsBackend().solve_assembled(replace(lp, c=lp.c * scale, name="scaled"))
    assert scaled.status == base.status
    if base.is_optimal:
        tol = max(1.0, abs(base.objective * scale)) * 1e-6
        assert abs(scaled.objective - base.objective * scale) <= tol
