"""Tests for the trace report tables."""

from repro.obs.export import write_jsonl
from repro.obs.report import epoch_table, machine_table, render, solve_table

TRACE = [
    {"type": "span", "cat": "epoch", "name": "scheduler-epoch", "ts": 0.0,
     "dur": 600.0, "index": 0, "queued": 10, "planned": 8, "parked": 2,
     "cost_delta": 1.25, "moved_mb": 640.0, "lp_solves": 1, "lp_wall_s": 0.02},
    {"type": "lp_solve", "cat": "lp", "name": "co-online", "ts": 0.0,
     "backend": "highs", "rows_ub": 10, "rows_eq": 2, "cols": 30, "nnz": 90,
     "wall_s": 0.02, "iterations": 12, "status": "optimal"},
    {"type": "span", "cat": "task", "name": "attempt", "ts": 1.0, "dur": 9.0,
     "machine": 0, "job": 0},
    {"type": "span", "cat": "task", "name": "attempt", "ts": 2.0, "dur": 5.0,
     "machine": 1, "job": 0},
    {"type": "event", "cat": "task", "name": "kill", "ts": 3.0, "machine": 0,
     "job": 0, "detail": "killed-speculative"},
    {"type": "event", "cat": "transfer", "name": "read", "ts": 1.0,
     "machine": 0, "store": 1, "mb": 64.0, "tier": "remote"},
]


class TestEpochTable:
    def test_renders_columns(self):
        out = epoch_table(TRACE)
        assert "Per-epoch" in out
        assert "1.2500" in out  # cost delta
        assert "640" in out

    def test_empty(self):
        assert "no epoch spans" in epoch_table([])


class TestSolveTable:
    def test_renders_shape_and_total(self):
        out = solve_table(TRACE)
        assert "co-online" in out and "highs" in out
        assert "12" in out  # rows = rows_ub + rows_eq
        assert "total: 1 solves" in out

    def test_limit_truncates(self):
        many = [dict(TRACE[1], ts=float(i)) for i in range(5)]
        out = solve_table(many, limit=2)
        assert "first 2 of 5" in out
        assert "total: 5 solves" in out

    def test_empty(self):
        assert "no LP solve records" in solve_table([])


class TestMachineTable:
    def test_aggregates_by_machine(self):
        out = machine_table(TRACE)
        lines = [l for l in out.splitlines() if l and l[0].isdigit()]
        assert len(lines) == 2  # machines 0 and 1
        m0 = lines[0].split("|")
        assert m0[1].strip() == "1"  # one map attempt
        assert m0[2].strip() == "1"  # one kill

    def test_remote_mb_excludes_local(self):
        trace = TRACE + [
            {"type": "event", "cat": "transfer", "name": "read", "ts": 5.0,
             "machine": 0, "store": 0, "mb": 100.0, "tier": "local"},
        ]
        out = machine_table(trace)
        row0 = next(l for l in out.splitlines() if l.startswith("0"))
        cols = [c.strip() for c in row0.split("|")]
        assert cols[4] == "164" and cols[5] == "64"


class TestRender:
    def test_full_report(self, tmp_path):
        path = write_jsonl(TRACE, tmp_path / "t.jsonl")
        out = render(path)
        for section in ("records", "Per-epoch", "Per-solve", "Per-machine"):
            assert section in out
