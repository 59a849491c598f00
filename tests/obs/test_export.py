"""Tests for trace exporters: JSONL round-trip, Chrome projection, summary."""

import json

from repro.obs.export import (
    EPOCH_LANE,
    LP_LANE,
    MISC_LANE,
    load_jsonl,
    summary,
    to_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)

RECORDS = [
    {"type": "event", "cat": "job", "name": "submit", "ts": 0.0, "job": 0},
    {"type": "span", "cat": "task", "name": "attempt", "ts": 1.0, "dur": 2.0,
     "machine": 3, "job": 0},
    {"type": "span", "cat": "epoch", "name": "scheduler-epoch", "ts": 0.0,
     "dur": 600.0, "index": 0},
    {"type": "lp_solve", "cat": "lp", "name": "co-online", "ts": 600.0,
     "backend": "highs", "rows_ub": 5, "rows_eq": 2, "cols": 9, "nnz": 20,
     "wall_s": 0.01, "iterations": 7, "status": "optimal"},
]


class TestJsonl:
    def test_write_load_round_trip(self, tmp_path):
        path = write_jsonl(RECORDS, tmp_path / "t.jsonl")
        assert load_jsonl(path) == RECORDS


class TestChromeTrace:
    def test_lane_assignment(self):
        chrome = to_chrome_trace(RECORDS)
        events = [e for e in chrome["traceEvents"] if e["ph"] != "M"]
        tids = [e["tid"] for e in events]
        assert tids == [MISC_LANE, 3, EPOCH_LANE, LP_LANE]

    def test_thread_names(self):
        chrome = to_chrome_trace(RECORDS)
        meta = {e["tid"]: e["args"]["name"]
                for e in chrome["traceEvents"] if e["ph"] == "M"}
        assert meta[3] == "machine 3"
        assert meta[EPOCH_LANE] == "epochs"
        assert meta[LP_LANE] == "lp solves"

    def test_span_duration_microseconds(self):
        chrome = to_chrome_trace(RECORDS)
        attempt = next(
            e for e in chrome["traceEvents"] if e["name"] == "task:attempt"
        )
        assert attempt["ph"] == "X"
        assert attempt["ts"] == 1.0e6 and attempt["dur"] == 2.0e6

    def test_lp_solve_duration_is_wall_time(self):
        chrome = to_chrome_trace(RECORDS)
        lp = next(e for e in chrome["traceEvents"] if e.get("cat") == "lp")
        assert lp["dur"] == 0.01e6

    def test_round_trip_preserves_envelope_and_args(self):
        chrome = to_chrome_trace(RECORDS)
        assert chrome["displayTimeUnit"] == "ms"
        events = [e for e in chrome["traceEvents"] if e["ph"] != "M"]
        assert len(events) == len(RECORDS)
        for record, event in zip(RECORDS, events):
            assert event["name"] == f"{record['cat']}:{record['name']}"
            assert event["cat"] == record["cat"]
            assert event["ts"] == record["ts"] * 1e6
            assert event["args"] == {
                k: v for k, v in record.items()
                if k not in ("type", "cat", "name", "ts", "dur")
            }
        assert [e["ph"] for e in events] == ["i", "X", "X", "X"]
        assert [e.get("dur") for e in events] == [None, 2.0e6, 600.0e6, 0.01e6]

    def test_write_chrome_trace_is_valid_json(self, tmp_path):
        path = write_chrome_trace(RECORDS, tmp_path / "t.json")
        loaded = json.loads(path.read_text())
        assert "traceEvents" in loaded


CAUSAL_RECORDS = [
    {"type": "span", "cat": "epoch", "name": "scheduler-epoch", "ts": 0.0,
     "dur": 60.0, "index": 0, "span_id": 1},
    {"type": "lp_solve", "cat": "lp", "name": "co-online", "ts": 60.0,
     "backend": "highs", "wall_s": 0.01, "iterations": 7, "status": "optimal",
     "span_id": 2, "parent": 1},
    {"type": "span", "cat": "transfer", "name": "move", "ts": 60.0, "dur": 5.0,
     "block": 0, "src": 0, "dest": 1, "mb": 64.0, "span_id": 3, "parent": 1},
    {"type": "span", "cat": "task", "name": "attempt", "ts": 65.0, "dur": 10.0,
     "machine": 1, "job": 0, "span_id": 4, "parent": 1, "links": [2, 3]},
]


class TestCausalFlows:
    def test_round_trip_preserves_causal_identity(self):
        chrome = to_chrome_trace(CAUSAL_RECORDS)
        events = [e for e in chrome["traceEvents"] if e["ph"] == "X"]
        identity = ("span_id", "parent", "links")
        assert [
            {k: e["args"][k] for k in identity if k in e["args"]} for e in events
        ] == [
            {k: r[k] for k in identity if k in r} for r in CAUSAL_RECORDS
        ]

    def test_flow_arrows_per_causal_edge(self):
        chrome = to_chrome_trace(CAUSAL_RECORDS)
        starts = [e for e in chrome["traceEvents"] if e["ph"] == "s"]
        ends = [e for e in chrome["traceEvents"] if e["ph"] == "f"]
        # edges: lp->epoch, move->epoch, attempt->epoch, attempt->lp, attempt->move
        assert len(starts) == len(ends) == 5
        assert {e["id"] for e in starts} == {e["id"] for e in ends}

    def test_flow_arrows_join_source_and_target_lanes(self):
        chrome = to_chrome_trace(CAUSAL_RECORDS)
        by_id = {}
        for e in chrome["traceEvents"]:
            if e["ph"] in ("s", "f"):
                by_id.setdefault(e["id"], {})[e["ph"]] = e
        # the attempt->move edge starts on the move's lane, ends on machine 1
        lanes = {(pair["s"]["tid"], pair["f"]["tid"]) for pair in by_id.values()}
        assert (MISC_LANE, 1) in lanes  # move (no machine attr) -> attempt

    def test_dangling_link_emits_no_flow(self):
        records = [dict(CAUSAL_RECORDS[-1], links=[99])]
        chrome = to_chrome_trace(records)
        assert not [e for e in chrome["traceEvents"] if e["ph"] in ("s", "f")]


class TestSummary:
    def test_mentions_counts(self):
        text = summary(RECORDS)
        assert "4 records" in text
        assert "lp solves: 1" in text
        assert "task attempts: 1" in text

    def test_horizon_is_span_end(self):
        text = summary(RECORDS)
        assert "600.0 simulated s" in text
