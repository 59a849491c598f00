"""WAL and snapshot durability: torn tails, gaps, atomic snapshots."""

import json

import pytest

from repro.cost.accounting import CostLedger
from repro.serve.journal import (
    REC_ADMISSION,
    REC_START,
    WriteAheadLog,
    data_from_dict,
    data_to_dict,
    job_from_dict,
    job_to_dict,
    ledger_from_dicts,
    ledger_to_dicts,
    load_latest_snapshot,
    read_wal,
    snapshot_path,
    write_snapshot,
)
from repro.workload.job import DataObject, Job


class TestWriteAheadLog:
    def test_append_read_round_trip(self, tmp_path):
        path = tmp_path / "service.wal"
        with WriteAheadLog(path, fsync=False) as wal:
            assert wal.append(REC_START, clock=0.0) == 0
            assert wal.append(REC_ADMISSION, job_id=3, admitted=True) == 1
        records = read_wal(path)
        assert [r["type"] for r in records] == [REC_START, REC_ADMISSION]
        assert records[1]["job_id"] == 3 and records[1]["admitted"] is True

    def test_reopen_resumes_sequence(self, tmp_path):
        path = tmp_path / "service.wal"
        with WriteAheadLog(path, fsync=False) as wal:
            wal.append(REC_START, clock=0.0)
            wal.append(REC_ADMISSION, job_id=0, admitted=True)
        with WriteAheadLog(path, fsync=False) as wal:
            assert wal.append(REC_ADMISSION, job_id=1, admitted=True) == 2
        assert [r["seq"] for r in read_wal(path)] == [0, 1, 2]

    def test_torn_tail_is_dropped(self, tmp_path):
        path = tmp_path / "service.wal"
        with WriteAheadLog(path, fsync=False) as wal:
            wal.append(REC_START, clock=0.0)
            wal.append(REC_ADMISSION, job_id=0, admitted=True)
        with path.open("a") as handle:
            handle.write('{"seq": 2, "type": "adm')  # crash mid-write
        records = read_wal(path)
        assert len(records) == 2
        # and a reopened WAL keeps numbering from the surviving prefix
        with WriteAheadLog(path, fsync=False) as wal:
            assert wal.append(REC_ADMISSION, job_id=1, admitted=False) == 2
        # reopening truncated the fragment, so the post-crash append landed
        # on a fresh line — the WAL must stay fully readable forever after
        records = read_wal(path)
        assert [r["seq"] for r in records] == [0, 1, 2]
        assert records[2] == {
            "seq": 2,
            "type": REC_ADMISSION,
            "job_id": 1,
            "admitted": False,
        }

    def test_double_crash_after_torn_tail_recovery(self, tmp_path):
        # crash -> recover (append) -> crash again mid-write -> recover:
        # each reopen must repair the tail the previous crash left behind
        path = tmp_path / "service.wal"
        with WriteAheadLog(path, fsync=False) as wal:
            wal.append(REC_START, clock=0.0)
        with path.open("a") as handle:
            handle.write('{"seq": 1, "ty')
        with WriteAheadLog(path, fsync=False) as wal:
            assert wal.append(REC_ADMISSION, job_id=0, admitted=True) == 1
        with path.open("a") as handle:
            handle.write('{"seq": 2')
        with WriteAheadLog(path, fsync=False) as wal:
            assert wal.append(REC_ADMISSION, job_id=1, admitted=True) == 2
        assert [r["seq"] for r in read_wal(path)] == [0, 1, 2]

    def test_complete_record_with_lost_newline_is_kept(self, tmp_path):
        # the crash persisted the full JSON but not the terminator: the
        # record reached the disk, so reopen finishes the line instead of
        # dropping the decision
        path = tmp_path / "service.wal"
        with WriteAheadLog(path, fsync=False) as wal:
            wal.append(REC_START, clock=0.0)
        with path.open("a") as handle:
            handle.write(json.dumps({"seq": 1, "type": REC_ADMISSION, "job_id": 0}))
        with WriteAheadLog(path, fsync=False) as wal:
            assert wal.append(REC_ADMISSION, job_id=1, admitted=True) == 2
        records = read_wal(path)
        assert [r["seq"] for r in records] == [0, 1, 2]
        assert records[1]["job_id"] == 0 and records[2]["job_id"] == 1

    def test_repair_leaves_mid_file_corruption_for_read_wal(self, tmp_path):
        path = tmp_path / "service.wal"
        with WriteAheadLog(path, fsync=False) as wal:
            wal.append(REC_START, clock=0.0)
            wal.append(REC_ADMISSION, job_id=0, admitted=True)
        lines = path.read_text().splitlines()
        lines[0] = lines[0][:-4]  # damage, not a crash
        path.write_text("\n".join(lines) + "\n")
        before = path.read_text()
        with pytest.raises(ValueError, match="corrupt WAL record"):
            WriteAheadLog(path, fsync=False)
        assert path.read_text() == before  # repair did not touch the damage

    def test_mid_file_corruption_is_loud(self, tmp_path):
        path = tmp_path / "service.wal"
        with WriteAheadLog(path, fsync=False) as wal:
            wal.append(REC_START, clock=0.0)
            wal.append(REC_ADMISSION, job_id=0, admitted=True)
        lines = path.read_text().splitlines()
        lines[0] = lines[0][:-4]  # corrupt a non-tail record
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="corrupt WAL record"):
            read_wal(path)

    def test_sequence_gap_is_loud(self, tmp_path):
        path = tmp_path / "service.wal"
        with WriteAheadLog(path, fsync=False) as wal:
            wal.append(REC_START, clock=0.0)
        record = {"seq": 5, "type": REC_ADMISSION, "job_id": 0, "admitted": True}
        with path.open("a") as handle:
            handle.write(json.dumps(record) + "\n")
        with pytest.raises(ValueError, match="sequence gap"):
            read_wal(path)


class TestSnapshots:
    def test_write_then_load_newest(self, tmp_path):
        write_snapshot(tmp_path, 4, {"clock": 60.0})
        write_snapshot(tmp_path, 9, {"clock": 120.0})
        loaded = load_latest_snapshot(tmp_path)
        assert loaded is not None
        state, path = loaded
        assert state["clock"] == 120.0 and state["wal_seq"] == 9
        assert path == snapshot_path(tmp_path, 9)

    def test_half_written_snapshot_is_skipped(self, tmp_path):
        write_snapshot(tmp_path, 4, {"clock": 60.0})
        snapshot_path(tmp_path, 9).write_text('{"truncated')
        state, path = load_latest_snapshot(tmp_path)
        assert state["wal_seq"] == 4 and path == snapshot_path(tmp_path, 4)

    def test_empty_dir_returns_none(self, tmp_path):
        assert load_latest_snapshot(tmp_path) is None

    def test_foreign_format_is_loud(self, tmp_path):
        snapshot_path(tmp_path, 2).write_text(json.dumps({"format": "other"}))
        with pytest.raises(ValueError, match="not a serve snapshot"):
            load_latest_snapshot(tmp_path)

    def test_no_tmp_file_left_behind(self, tmp_path):
        write_snapshot(tmp_path, 1, {"clock": 0.0})
        leftovers = [p for p in tmp_path.iterdir() if p.suffix != ".json"]
        assert leftovers == []


class TestStateCodecs:
    def test_job_round_trip_is_exact(self):
        job = Job(
            job_id=7,
            name="grep",
            tcp=0.125,
            data_ids=[0, 2],
            num_tasks=5,
            arrival_time=312.5,
            pool="etl",
            read_fraction=0.75,
        )
        assert job_from_dict(job_to_dict(job)) == job

    def test_parent_wal_admission_record_loads(self, tmp_path):
        # an admission record as written before the reduce phase was removed
        line = (
            '{"seq": 2, "type": "admission", "job": {"job_id": 0, "name": "serve-job-0", '
            '"tcp": 1.3042240826119438, "data_ids": [0], "num_tasks": 4, '
            '"cpu_seconds_noinput": 0.0, "arrival_time": 495.6703579933351, '
            '"pool": "default", "app": "custom", "priority": 0, "num_reduces": 0, '
            '"shuffle_ratio": 0.0, "reduce_cpu_per_mb": 0.0, "read_fraction": 1.0}, '
            '"data": {"data_id": 0, "name": "serve-d0", "size_mb": 244.47406894729852, '
            '"origin_store": 2, "block_mb": 64.0}, "admitted": true, "reason": null, '
            '"ts": 540.0}'
        )
        path = tmp_path / "wal.jsonl"
        path.write_text('{"seq": 0, "type": "start"}\n{"seq": 1, "type": "start"}\n' + line + "\n")
        [record] = [r for r in read_wal(path) if r["type"] == REC_ADMISSION]
        assert job_from_dict(record["job"]) == Job(
            job_id=0,
            name="serve-job-0",
            tcp=1.3042240826119438,
            data_ids=[0],
            num_tasks=4,
            arrival_time=495.6703579933351,
        )
        assert "num_reduces" not in job_to_dict(job_from_dict(record["job"]))

    def test_job_with_reduces_rejected(self):
        payload = job_to_dict(Job(job_id=3, name="wc", tcp=1.0, data_ids=[0]))
        payload["num_reduces"] = 2
        with pytest.raises(ValueError, match="'wc'.*num_reduces=2"):
            job_from_dict(payload)

    def test_data_round_trip_is_exact(self):
        obj = DataObject(data_id=1, name="logs", size_mb=96.5, origin_store=2)
        assert data_from_dict(data_to_dict(obj)) == obj

    def test_ledger_round_trip_is_float_exact(self):
        ledger = CostLedger()
        ledger.charge_cpu(0.1 + 0.2, job_id=1, machine_id=0, detail="epoch 3")
        ledger.charge_placement_transfer(1.0 / 3.0, store_id=1, job_id=1)
        ledger.charge_runtime_transfer(7.0 / 11.0, job_id=1, machine_id=0, store_id=1)
        clone = ledger_from_dicts(ledger_to_dicts(ledger))
        assert clone.total == ledger.total
        assert ledger_to_dicts(clone) == ledger_to_dicts(ledger)
