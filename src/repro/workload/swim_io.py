"""Import real SWIM trace files.

SWIM's published workloads (e.g. ``FB-2010_samples_24_times_1hr_0.tsv``,
the file the paper replays) are tab-separated with one job per line::

    job_id  submit_time_s  inter_arrival_s  map_input_bytes  shuffle_bytes  reduce_output_bytes

This module converts such files into :class:`~repro.workload.job.Workload`
objects: map counts derive from input bytes at one 64 MB block per map,
and the compute profile (CPU per input byte) is assigned per job from the
Table I app mix since the trace carries no CPU information.  Jobs are
map-only: the shuffle and output columns are parsed but not replayed.

The repository ships no trace (SWIM's files are third-party); tests build
synthetic TSVs with the same schema, and
:func:`repro.workload.swim.synthesize_facebook_day` remains the built-in
substitute for the paper's Figure 9 workload.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

from repro.util import round_half_up

import numpy as np

from repro.cluster.storage import BLOCK_MB
from repro.workload.apps import app_profile
from repro.workload.job import DataObject, Job, Workload

PathLike = Union[str, Path]

#: expected column count of a SWIM trace row
SWIM_COLUMNS = 6


@dataclass(frozen=True)
class SwimTraceRow:
    """One parsed trace line."""

    job_name: str
    submit_time_s: float
    map_input_bytes: float
    shuffle_bytes: float
    reduce_output_bytes: float


def parse_swim_tsv(path: PathLike) -> List[SwimTraceRow]:
    """Parse a SWIM TSV file; malformed lines raise with their line number."""
    rows: List[SwimTraceRow] = []
    with open(path, newline="") as fh:
        for lineno, parts in enumerate(csv.reader(fh, delimiter="\t"), start=1):
            if not parts or (len(parts) == 1 and not parts[0].strip()):
                continue  # blank line
            if len(parts) != SWIM_COLUMNS:
                raise ValueError(
                    f"{path}:{lineno}: expected {SWIM_COLUMNS} tab-separated "
                    f"fields, got {len(parts)}"
                )
            try:
                rows.append(
                    SwimTraceRow(
                        job_name=parts[0],
                        submit_time_s=float(parts[1]),
                        map_input_bytes=float(parts[3]),
                        shuffle_bytes=float(parts[4]),
                        reduce_output_bytes=float(parts[5]),
                    )
                )
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    return rows


def workload_from_swim(
    rows: Sequence[SwimTraceRow],
    num_origin_stores: int = 1,
    app_mix: Optional[Sequence[Tuple[str, float]]] = None,
    seed: int = 0,
) -> Workload:
    """Build a workload from parsed trace rows.

    ``app_mix`` assigns a Table I compute profile to each job (the trace
    has bytes but no CPU); default mirrors the synthesiser's FB-like mix,
    excluding the input-less Pi profile.
    """
    if num_origin_stores < 1:
        raise ValueError("num_origin_stores must be >= 1")
    mix = list(app_mix) if app_mix is not None else [
        ("grep", 0.5),
        ("stress1", 0.2),
        ("stress2", 0.15),
        ("wordcount", 0.15),
    ]
    names = [a for a, _ in mix]
    probs = np.array([p for _, p in mix], dtype=float)
    if abs(probs.sum() - 1.0) > 1e-9:
        raise ValueError("app mix probabilities must sum to 1")
    rng = np.random.default_rng(seed)

    data: List[DataObject] = []
    jobs: List[Job] = []
    for row in sorted(rows, key=lambda r: r.submit_time_s):
        input_mb = max(BLOCK_MB, row.map_input_bytes / (1024.0 * 1024.0))
        maps = max(1, round_half_up(input_mb / BLOCK_MB))
        prof = app_profile(names[int(rng.choice(len(names), p=probs))])
        d = DataObject(
            data_id=len(data),
            name=f"swim-{row.job_name}",
            size_mb=maps * BLOCK_MB,
            origin_store=len(data) % num_origin_stores,
        )
        data.append(d)
        jobs.append(
            Job(
                job_id=len(jobs),
                name=f"swim-{row.job_name}",
                tcp=prof.tcp,
                data_ids=[d.data_id],
                num_tasks=maps,
                arrival_time=max(0.0, row.submit_time_s),
                pool=_size_class(maps),
                app=prof.name,
            )
        )
    return Workload(jobs=jobs, data=data)


def load_swim_workload(path: PathLike, **kwargs) -> Workload:
    """Parse + convert in one call."""
    return workload_from_swim(parse_swim_tsv(path), **kwargs)


def _size_class(maps: int) -> str:
    """The interactive/medium/long classification the paper names."""
    if maps <= 10:
        return "interactive"
    if maps <= 150:
        return "medium"
    return "long"
