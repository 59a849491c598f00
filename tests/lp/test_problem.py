"""Unit tests for the LP model builder and matrix assembly."""

import numpy as np
import pytest

from repro.lp.problem import LinearProgram, Sense


@pytest.fixture
def lp():
    return LinearProgram("t")


class TestVariables:
    def test_new_var_indexing(self, lp):
        x = lp.new_var("x")
        y = lp.new_var("y")
        assert (x.index, y.index) == (0, 1)
        assert lp.num_variables == 2

    def test_duplicate_name_rejected(self, lp):
        lp.new_var("x")
        with pytest.raises(ValueError, match="duplicate"):
            lp.new_var("x")

    def test_variable_by_name(self, lp):
        x = lp.new_var("x")
        assert lp.variable_by_name("x") is x
        with pytest.raises(KeyError):
            lp.variable_by_name("nope")

    def test_new_vars_batch(self, lp):
        vs = lp.new_vars(["a", "b", "c"], upper=2.0)
        assert [v.name for v in vs] == ["a", "b", "c"]
        assert all(v.upper == 2.0 for v in vs)


class TestConstraints:
    def test_constant_folded_into_rhs(self, lp):
        x = lp.new_var("x")
        con = lp.add_constraint(x + 5.0, Sense.LE, 8.0)
        assert con.rhs == pytest.approx(3.0)

    def test_variable_accepted_as_lhs(self, lp):
        x = lp.new_var("x")
        con = lp.add_constraint(x, Sense.GE, 1.0)
        assert con.coeffs == {0: 1.0}

    def test_bad_lhs_type(self, lp):
        with pytest.raises(TypeError):
            lp.add_constraint("x", Sense.LE, 1.0)

    def test_names_autogenerated(self, lp):
        x = lp.new_var("x")
        c0 = lp.add_constraint(x, Sense.LE, 1.0)
        c1 = lp.add_constraint(x, Sense.LE, 2.0, name="cap")
        assert c0.name == "c0"
        assert c1.name == "cap"


class TestAssembly:
    def test_ge_rows_negated(self, lp):
        x = lp.new_var("x")
        lp.add_constraint(2 * x, Sense.GE, 4.0)
        asm = lp.assemble()
        assert np.asarray(asm.a_ub).tolist() == [[-2.0]]
        assert asm.b_ub.tolist() == [-4.0]

    def test_eq_rows_separate(self, lp):
        x, y = lp.new_var("x"), lp.new_var("y")
        lp.add_constraint(x + y, Sense.EQ, 1.0)
        lp.add_constraint(x, Sense.LE, 0.5)
        asm = lp.assemble()
        assert asm.a_eq.shape == (1, 2)
        assert asm.a_ub.shape == (1, 2)

    def test_objective_vector(self, lp):
        x, y = lp.new_var("x"), lp.new_var("y")
        lp.set_objective(3 * y + 1.5)
        asm = lp.assemble()
        assert asm.c.tolist() == [0.0, 3.0]
        assert asm.objective_constant == 1.5

    def test_bounds_matrix(self, lp):
        lp.new_var("x", lower=-1.0, upper=2.0)
        lp.new_var("y")
        asm = lp.assemble()
        assert asm.bounds[0].tolist() == [-1.0, 2.0]
        assert asm.bounds[1][0] == 0.0
        assert np.isinf(asm.bounds[1][1])

    def test_empty_model(self, lp):
        asm = lp.assemble()
        assert asm.num_variables == 0


class TestSolve:
    def test_docstring_example(self):
        lp = LinearProgram("diet")
        x = lp.new_var("x")
        y = lp.new_var("y")
        lp.add_constraint(x + y, Sense.GE, 1.0)
        lp.set_objective(2.0 * x + 3.0 * y)
        res = lp.solve()
        assert res.is_optimal
        assert res.objective == pytest.approx(2.0)
        assert res["x"] == pytest.approx(1.0)

    def test_objective_constant_included(self):
        lp = LinearProgram()
        x = lp.new_var("x", upper=1.0)
        lp.set_objective(x + 10.0)
        res = lp.solve()
        assert res.objective == pytest.approx(10.0)

    def test_value_map(self):
        lp = LinearProgram()
        lp.new_var("a")
        lp.new_var("b")
        vm = lp.value_map(np.array([1.5, 2.5]))
        assert vm == {"a": 1.5, "b": 2.5}
