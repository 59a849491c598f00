"""Smoke tests: every shipped example runs green as a subprocess.

Examples rot silently when APIs move; running them end-to-end (at their
default, small scales) keeps the quickstart honest.
"""

import subprocess
import sys
from pathlib import Path


EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def run_example(name, *args, timeout=240):
    return subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def test_examples_directory_inventory():
    names = sorted(p.name for p in EXAMPLES.glob("*.py"))
    assert names == [
        "ec2_cost_savings.py",
        "epoch_tuning.py",
        "facebook_day.py",
        "quickstart.py",
    ]


def test_quickstart(capsys):
    r = run_example("quickstart.py")
    assert r.returncode == 0, r.stderr
    assert "co-scheduled optimal cost" in r.stdout
    assert "saving from moving the data" in r.stdout


def test_ec2_cost_savings():
    r = run_example("ec2_cost_savings.py", "0.5")
    assert r.returncode == 0, r.stderr
    assert "LiPS saves" in r.stdout
    assert "longer makespan" in r.stdout


def test_epoch_tuning():
    r = run_example("epoch_tuning.py", "3000")
    assert r.returncode == 0, r.stderr
    assert "makespan budget" in r.stdout
    assert "epoch" in r.stdout


def test_facebook_day():
    r = run_example("facebook_day.py")
    assert r.returncode == 0, r.stderr
    assert "trace preview" in r.stdout
    assert "LiPS saving" in r.stdout

