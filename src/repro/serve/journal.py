"""Crash-consistent persistence: write-ahead log plus periodic snapshots.

The service journals every externally-visible decision *before* acting on
it, then periodically snapshots its full state:

* ``wal.jsonl`` — one JSON record per line, strictly sequence-numbered,
  flushed (and by default fsynced) per record.  Record types: ``start``
  (run header), ``admission`` (the offered job + data and the decision),
  ``epoch`` (one scheduler tick: LP-vs-greedy choice, deadline-miss flag,
  cost delta), ``advance`` (idle clock jump), ``snapshot`` (checkpoint
  marker) and ``recovered`` (a recovery completed here).
* ``snapshot-<seq>.json`` — the complete service state as of WAL sequence
  ``seq``: controller queue/data/ledger/reports, admission counters and
  bucket, health machine, cumulative arrays.

Recovery loads the newest snapshot and *re-executes* the WAL suffix:
admission records re-run the (deterministic) admission policy — the
journaled decision doubles as a self-check — and epoch records re-run
``EpochController.step`` with the journaled LP/greedy choice, so wall-time
measurement (the one non-deterministic input) is never re-measured.  LP
solves are deterministic, so the re-executed suffix reproduces the original
charges exactly; floats survive JSON via ``repr`` round-tripping, so the
recovered ledger is byte-identical to the pre-crash one.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.cost.accounting import CostLedger, CostRecord
from repro.workload.serialize import (  # noqa: F401 - the WAL's record codecs
    data_from_dict,
    data_to_dict,
    job_from_dict,
    job_to_dict,
)

FORMAT_WAL = "repro-serve-wal"
FORMAT_SNAPSHOT = "repro-serve-snapshot"
VERSION = 1

#: WAL record types.
REC_START = "start"
REC_ADMISSION = "admission"
REC_EPOCH = "epoch"
REC_ADVANCE = "advance"
REC_SNAPSHOT = "snapshot"
REC_RECOVERED = "recovered"

PathLike = Union[str, Path]


# -- field-level (de)serialisers ---------------------------------------------
def ledger_to_dicts(ledger: CostLedger) -> List[Dict[str, Any]]:
    """Serialise every cost record; ``repr``-exact floats via JSON."""
    return [
        {
            "category": r.category,
            "amount": r.amount,
            "job_id": r.job_id,
            "machine_id": r.machine_id,
            "store_id": r.store_id,
            "detail": r.detail,
            "span_id": r.span_id,
        }
        for r in ledger.records
    ]


def ledger_from_dicts(payload: List[Dict[str, Any]]) -> CostLedger:
    """Rebuild a ledger with records in original order."""
    return CostLedger(records=[CostRecord(**r) for r in payload])


# -- the write-ahead log ------------------------------------------------------
class WriteAheadLog:
    """Append-only, sequence-numbered JSONL journal.

    Each :meth:`append` assigns the next sequence number, writes one line
    and flushes it (fsync by default) before returning — by the time the
    caller acts on a decision, the decision is on disk.  A torn final line
    (crash mid-write) is dropped on read *and truncated on reopen* — the
    next append must start on a fresh line, never concatenate onto a
    fragment and corrupt the record mid-file.  A gap in sequence numbers
    is corruption and fails loudly.
    """

    def __init__(self, path: PathLike, fsync: bool = True) -> None:
        self.path = Path(path)
        self.fsync = fsync
        self.seq = -1
        if self.path.exists():
            _repair_torn_tail(self.path)
            existing = read_wal(self.path)
            if existing:
                self.seq = int(existing[-1]["seq"])
        self._fh = open(self.path, "a", encoding="utf-8")

    def append(self, rec_type: str, **payload: Any) -> int:
        """Durably append one record; returns its sequence number."""
        self.seq += 1
        record = {"seq": self.seq, "type": rec_type}
        record.update(payload)
        self._fh.write(json.dumps(record) + "\n")
        self._fh.flush()
        if self.fsync:
            os.fsync(self._fh.fileno())
        return self.seq

    def close(self) -> None:
        """Close the underlying file handle."""
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def _repair_torn_tail(path: Path) -> None:
    """Make a crashed WAL safe to append to again.

    :func:`read_wal` merely *skips* a torn tail; the fragment's bytes stay
    on disk, and appending after them would weld the next record onto the
    fragment — one unparseable line mid-file, bricking every later read.
    So before reopening for append: truncate an unparseable tail fragment,
    and newline-terminate a final record whose JSON survived the crash but
    whose terminator did not.  Mid-file corruption is left untouched for
    :func:`read_wal` to reject loudly — that is damage, not a crash.
    """
    data = path.read_bytes()
    keep = 0  # byte length of the newline-terminated parseable prefix
    pos = 0
    while True:
        nl = data.find(b"\n", pos)
        if nl == -1:
            break
        line = data[pos:nl]
        if line.strip():
            try:
                json.loads(line)
            except (json.JSONDecodeError, UnicodeDecodeError):
                if data[nl + 1 :].strip():
                    return  # corrupt mid-file: read_wal raises, not us
                break
        keep = nl + 1
        pos = nl + 1
    tail = data[keep:]
    if not tail:
        return
    if tail.strip():
        try:
            json.loads(tail)
        except (json.JSONDecodeError, UnicodeDecodeError):
            pass
        else:
            # complete record, lost terminator: finish the line instead of
            # dropping a decision that did reach the disk
            with open(path, "ab") as fh:
                fh.write(b"\n")
                fh.flush()
                os.fsync(fh.fileno())
            return
    with open(path, "r+b") as fh:
        fh.truncate(keep)
        fh.flush()
        os.fsync(fh.fileno())


def read_wal(path: PathLike) -> List[Dict[str, Any]]:
    """Read a WAL, dropping a torn tail line and checking seq contiguity."""
    records: List[Dict[str, Any]] = []
    text = Path(path).read_text(encoding="utf-8")
    lines = text.split("\n")
    for pos, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            if pos == len(lines) - 1 or not any(x.strip() for x in lines[pos + 1:]):
                break  # torn tail from a mid-write crash: recoverable
            raise ValueError(f"{path}: corrupt WAL record at line {pos + 1}")
        records.append(record)
    for pos, record in enumerate(records):
        if int(record["seq"]) != pos:
            raise ValueError(
                f"{path}: WAL sequence gap at line {pos + 1} "
                f"(expected seq {pos}, got {record['seq']})"
            )
    return records


# -- snapshots ----------------------------------------------------------------
def snapshot_path(wal_dir: PathLike, seq: int) -> Path:
    """Canonical snapshot filename for WAL sequence ``seq``."""
    return Path(wal_dir) / f"snapshot-{seq:08d}.json"


def write_snapshot(wal_dir: PathLike, seq: int, state: Dict[str, Any]) -> Path:
    """Atomically and durably write a snapshot of ``state`` as of WAL ``seq``.

    Same durability rigor as the per-record-fsync WAL: the tmp file is
    fsynced before the rename and the directory after it, so a power loss
    never persists the rename ahead of the content (or silently loses it).
    """
    payload = {"format": FORMAT_SNAPSHOT, "version": VERSION, "wal_seq": seq}
    payload.update(state)
    path = snapshot_path(wal_dir, seq)
    tmp = path.with_suffix(".json.tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload))
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    dir_fd = os.open(str(path.parent), os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)
    return path


def load_latest_snapshot(wal_dir: PathLike) -> Optional[Tuple[Dict[str, Any], Path]]:
    """Newest complete snapshot in ``wal_dir``, or None before the first."""
    candidates = sorted(Path(wal_dir).glob("snapshot-*.json"), reverse=True)
    for path in candidates:
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError:
            continue  # half-written snapshot: fall back to an older one
        if payload.get("format") != FORMAT_SNAPSHOT:
            raise ValueError(f"{path}: not a serve snapshot")
        if payload.get("version") != VERSION:
            raise ValueError(f"{path}: unsupported snapshot version {payload.get('version')!r}")
        return payload, path
    return None
