"""Unit tests for LP solve profiling on the shared backend path."""

import pytest

from repro.lp.scipy_backend import HighsBackend
from repro.lp.simplex import SimplexBackend
from repro.obs import lpprof
from tests.lp.dense import dense_lp


def _tiny_lp(name="tiny"):
    """min 2x + 3y  s.t.  x + y >= 1 (written -x - y <= -1)."""
    return dense_lp([2.0, 3.0], [[-1.0, -1.0]], [-1.0], name=name)


class TestCollectors:
    def test_inactive_by_default(self):
        assert not lpprof.active()

    def test_no_records_without_collector(self):
        with lpprof.profile() as outer:
            pass
        HighsBackend().solve_assembled(_tiny_lp())
        assert outer.solves == 0

    def test_collect_stack_observes_all(self):
        seen = []
        with lpprof.collect(seen.append):
            with lpprof.profile() as prof:
                HighsBackend().solve_assembled(_tiny_lp())
        assert len(seen) == 1
        assert prof.solves == 1  # nested collectors both observe


@pytest.mark.parametrize("backend", [HighsBackend(), SimplexBackend()])
class TestBackendProfiles:
    def test_record_fields(self, backend):
        with lpprof.profile() as prof:
            result = backend.solve_assembled(_tiny_lp("my-model"))
        (rec,) = prof.records
        assert rec.name == "my-model"
        assert rec.backend == backend.name
        assert rec.rows_ub == 1 and rec.rows_eq == 0 and rec.cols == 2
        assert rec.nnz == 2
        assert rec.wall_seconds > 0
        assert rec.status == "optimal"
        assert rec.iterations == result.iterations
        assert result.objective == pytest.approx(2.0)

    def test_rows_property(self, backend):
        with lpprof.profile() as prof:
            backend.solve_assembled(_tiny_lp())
        assert prof.records[0].rows == 1

    def test_to_dict_round_trip(self, backend):
        with lpprof.profile() as prof:
            backend.solve_assembled(_tiny_lp())
        d = prof.records[0].to_dict()
        for key in ("backend", "rows_ub", "rows_eq", "cols", "nnz", "wall_s",
                    "iterations", "status"):
            assert key in d


class TestLPProfileSummary:
    def test_aggregates(self):
        with lpprof.profile() as prof:
            HighsBackend().solve_assembled(_tiny_lp())
            SimplexBackend().solve_assembled(_tiny_lp())
        assert prof.solves == 2
        assert prof.wall_seconds > 0
        assert prof.by_status() == {"optimal": 2}
