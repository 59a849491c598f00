"""Tests for CSV export of experiment results."""

import csv

import pytest

from repro.experiments.export import (
    export_all,
    fig5_table,
    frontier_table,
    write_csv,
)


def read(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_write_csv_roundtrip(tmp_path):
    p = write_csv(tmp_path / "t.csv", ["a", "b"], [[1, 2], [3, 4]])
    rows = read(p)
    assert rows == [["a", "b"], ["1", "2"], ["3", "4"]]


def test_write_csv_creates_directories(tmp_path):
    p = write_csv(tmp_path / "deep" / "dir" / "t.csv", ["x"], [[1]])
    assert p.exists()


def test_fig5_table(tmp_path):
    from repro.experiments.fig5_simulated_savings import run

    res = run(sizes=((100, 5, 5), (200, 10, 10)), seeds=(0,))
    header, rows = fig5_table(res)
    assert header[0] == "tasks"
    assert len(rows) == 2
    p = write_csv(tmp_path / "fig5.csv", header, rows)
    assert len(read(p)) == 3


def test_frontier_table(small_input, tmp_path):
    from repro.core.deadline import cost_deadline_frontier

    frontier = cost_deadline_frontier(small_input, num_points=4)
    header, rows = frontier_table(frontier)
    assert len(rows) == 4
    p = write_csv(tmp_path / "f.csv", header, rows)
    assert read(p)[0] == ["deadline_s", "cost", "feasible"]


def test_export_all(tmp_path):
    from repro.experiments.fig5_simulated_savings import run

    res = run(sizes=((100, 5, 5),), seeds=(0,))
    written = export_all(tmp_path, fig5=res)
    assert [p.name for p in written] == ["fig5.csv"]


def test_export_all_unknown_kind(tmp_path):
    with pytest.raises(KeyError, match="unknown result kind"):
        export_all(tmp_path, fig99=None)
