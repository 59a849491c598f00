"""Tests for SWIM TSV import and workload statistics."""

import pytest

from repro.workload.stats import arrival_histogram, summarize
from repro.workload.swim import SwimConfig, synthesize_facebook_day
from repro.workload.swim_io import (
    SwimTraceRow,
    load_swim_workload,
    parse_swim_tsv,
    workload_from_swim,
)

MB = 1024.0 * 1024.0


def write_trace(path, rows):
    lines = []
    for i, (submit, input_b, shuffle_b, output_b) in enumerate(rows):
        lines.append(f"job{i}\t{submit}\t0\t{input_b}\t{shuffle_b}\t{output_b}")
    path.write_text("\n".join(lines) + "\n")


class TestParse:
    def test_parse_roundtrip(self, tmp_path):
        p = tmp_path / "trace.tsv"
        write_trace(p, [(0.0, 128 * MB, 10 * MB, MB), (60.0, 64 * MB, 0.0, 0.0)])
        rows = parse_swim_tsv(p)
        assert len(rows) == 2
        assert rows[0].map_input_bytes == 128 * MB
        assert rows[0].shuffle_bytes == 10 * MB
        assert rows[1].submit_time_s == 60.0

    def test_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "trace.tsv"
        p.write_text("job0\t0\t0\t67108864\t0\t0\n\n")
        assert len(parse_swim_tsv(p)) == 1

    def test_malformed_line_reports_lineno(self, tmp_path):
        p = tmp_path / "trace.tsv"
        p.write_text("job0\t0\t0\n")
        with pytest.raises(ValueError, match=":1:"):
            parse_swim_tsv(p)

    def test_non_numeric_rejected(self, tmp_path):
        p = tmp_path / "trace.tsv"
        p.write_text("job0\tzero\t0\t1\t1\t1\n")
        with pytest.raises(ValueError, match=":1:"):
            parse_swim_tsv(p)


class TestConvert:
    def _rows(self):
        return [
            SwimTraceRow("a", 10.0, 128 * MB, 38 * MB, MB),
            SwimTraceRow("b", 0.0, 64 * MB, 0.0, 0.0),
            SwimTraceRow("c", 5.0, 100 * 64 * MB, 10 * MB, MB),
        ]

    def test_maps_from_input_bytes(self):
        w = workload_from_swim(self._rows())
        jobs_by_name = {j.name: j for j in w.jobs}
        assert jobs_by_name["swim-a"].num_tasks == 2  # 128 MB / 64 MB
        assert jobs_by_name["swim-b"].num_tasks == 1
        assert jobs_by_name["swim-c"].num_tasks == 100

    def test_jobs_sorted_by_submit(self):
        w = workload_from_swim(self._rows())
        times = [j.arrival_time for j in w.jobs]
        assert times == sorted(times)

    def test_size_classes(self):
        w = workload_from_swim(self._rows())
        pools = {j.name: j.pool for j in w.jobs}
        assert pools["swim-a"] == "interactive"
        assert pools["swim-c"] == "medium"

    def test_map_only_by_default(self):
        # the shuffle and output columns are parsed but change no job
        rows = self._rows()
        bare = [
            SwimTraceRow(r.job_name, r.submit_time_s, r.map_input_bytes, 0.0, 0.0) for r in rows
        ]
        assert workload_from_swim(rows).jobs == workload_from_swim(bare).jobs

    def test_app_mix_validation(self):
        with pytest.raises(ValueError, match="sum to 1"):
            workload_from_swim(self._rows(), app_mix=[("grep", 0.5)])

    def test_deterministic_profiles(self):
        a = workload_from_swim(self._rows(), seed=3)
        b = workload_from_swim(self._rows(), seed=3)
        assert [j.app for j in a.jobs] == [j.app for j in b.jobs]

    def test_load_end_to_end(self, tmp_path):
        p = tmp_path / "trace.tsv"
        write_trace(p, [(0.0, 640 * MB, 64 * MB, MB)])
        w = load_swim_workload(p, num_origin_stores=3)
        assert w.num_jobs == 1
        assert w.jobs[0].num_tasks == 10
        # usable by the scheduler stack
        from repro.cluster.builder import build_paper_testbed
        from repro.core import SchedulingInput, solve_co_offline

        cluster = build_paper_testbed(6, seed=0, uptime=50_000.0)
        sol = solve_co_offline(SchedulingInput.from_parts(cluster, w))
        assert sol.objective > 0


class TestStats:
    def test_summary_of_synthetic_day(self):
        w = synthesize_facebook_day(SwimConfig(num_jobs=120, seed=5))
        s = summarize(w)
        assert s.num_jobs == 120
        assert s.total_tasks == w.total_tasks()
        assert s.map_count_percentiles[50] <= s.map_count_percentiles[90]
        assert set(s.jobs_by_pool) <= {"interactive", "medium", "long"}
        assert s.arrival_span_s > 0
        assert len(s.rows()) > 8

    def test_arrival_histogram_counts(self):
        w = synthesize_facebook_day(SwimConfig(num_jobs=200, seed=1))
        h = arrival_histogram(w, num_buckets=24)
        assert h.sum() == 200
        assert len(h) == 24

    def test_arrival_histogram_degenerate(self):
        from repro.workload.job import Job, Workload

        w = Workload(
            jobs=[Job(job_id=0, name="j", tcp=0.0, cpu_seconds_noinput=1.0)], data=[]
        )
        h = arrival_histogram(w, num_buckets=4)
        assert h.tolist() == [1, 0, 0, 0]

    def test_histogram_validation(self):
        w = synthesize_facebook_day(SwimConfig(num_jobs=5, seed=1))
        with pytest.raises(ValueError):
            arrival_histogram(w, num_buckets=0)
