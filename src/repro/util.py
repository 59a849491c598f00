"""Dependency-free helpers importable from anywhere in the package.

Lives outside the subpackages on purpose: ``repro.cluster`` and
``repro.workload`` need :func:`round_half_up` but must not pull in
``repro.core`` (whose ``__init__`` imports the LP stack back out of them).
"""

from __future__ import annotations

import math


def round_half_up(x: float) -> int:
    """Round to the nearest integer, halves toward +inf.

    Python 3's ``round`` is banker's rounding (``round(2.5) == 2``), which
    silently drops a task whenever a task count lands on an exact ``.5``
    fraction.  Schedule-facing counts must use this (or
    ``repro.core.rounding.largest_remainder_round`` for apportionment)
    instead of ``int(round(...))`` — enforced by lint rule ``AST003``.
    """
    return math.floor(x + 0.5)

