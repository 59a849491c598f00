"""Property-based cross-validation of the two LP backends.

The from-scratch simplex and HiGHS must agree on status and, when optimal,
on objective value — over randomly generated bounded LPs.  Every optimum
either backend returns must also pass the duality certificate, so the
reference simplex's duals are part of its contract too.
"""

from hypothesis import given, settings, strategies as st

from repro.lp.expr import LinExpr
from repro.lp.problem import LinearProgram, Sense
from repro.lp.result import LPStatus
from repro.lp.scipy_backend import HighsBackend
from repro.lp.simplex import SimplexBackend
from repro.lp.validation import certify

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
    lp = LinearProgram("prop")
    vs = []
    for i in range(n):
        upper = draw(st.floats(min_value=0.1, max_value=5.0))
        vs.append(lp.new_var(f"v{i}", lower=0.0, upper=upper))
    for j in range(m):
        coeffs = [draw(finite) for _ in range(n)]
        expr = sum(c * v for c, v in zip(coeffs, vs)) + 0.0
        sense = draw(st.sampled_from([Sense.LE, Sense.GE, Sense.EQ]))
        # keep rhs near the feasible region to hit all three statuses
        point = [draw(st.floats(min_value=0.0, max_value=1.0)) * v.upper for v in vs]
        rhs = sum(c * p for c, p in zip(coeffs, point)) + draw(
            st.floats(min_value=-1.0, max_value=1.0)
        )
        lp.add_constraint(expr, sense, rhs)
    lp.set_objective(sum(draw(finite) * v for v in vs) + 0.0)
    return lp


@given(bounded_lp())
@settings(max_examples=60, deadline=None)
def test_backends_agree(lp):
    a = HighsBackend().solve(lp)
    b = SimplexBackend().solve(lp)
    # box-bounded: unbounded is impossible; both must agree feasible/not
    assert a.status in (LPStatus.OPTIMAL, LPStatus.INFEASIBLE)
    assert a.status == b.status
    if a.is_optimal:
        scale = max(1.0, abs(a.objective))
        assert abs(a.objective - b.objective) <= 1e-6 * scale


@given(bounded_lp())
@settings(max_examples=60, deadline=None)
def test_optimal_solutions_are_feasible(lp):
    asm = lp.assemble()
    for backend in (HighsBackend(), SimplexBackend()):
        res = backend.solve_assembled(asm)
        if res.is_optimal:
            cert = certify(asm, res)
            assert cert.ok, (backend.name, cert)


@given(bounded_lp(), st.floats(min_value=0.1, max_value=10.0))
@settings(max_examples=40, deadline=None)
def test_objective_scaling_invariance(lp, scale):
    """Scaling the objective scales the optimum; the argmin set is stable."""
    base = HighsBackend().solve(lp)
    scaled_obj = lp.objective * scale
    lp2 = LinearProgram("scaled")
    for v in lp.variables:
        lp2.new_var(v.name, lower=v.lower, upper=v.upper)
    for con in lp.constraints:
        expr = LinExpr.zero()
        for i, c in con.coeffs.items():
            expr.add_term(lp2.variables[i], c)
        lp2.add_constraint(expr, con.sense, con.rhs)
    lp2.set_objective(scaled_obj)
    scaled = HighsBackend().solve(lp2)
    assert scaled.status == base.status
    if base.is_optimal:
        tol = max(1.0, abs(base.objective * scale)) * 1e-6
        assert abs(scaled.objective - base.objective * scale) <= tol
