"""Experiment harness: one module per table/figure of the paper.

Every module exposes a ``run(...)`` function returning a result dataclass
plus a ``main(full=False, csv_dir=None)`` that prints the same rows/series
the paper reports; ``python -m repro <name>`` calls it.  Each paper and
ablation claim is stated once, in :mod:`repro.experiments.check`
(``python -m repro check``, asserted in tier-1); EXPERIMENTS.md records
paper-vs-measured for each.

Scale: each experiment has one reduced size, shared by its table and its
claim.  ``full=True`` (``--full``) runs the paper's sizes where they
differ (Figs 5 and 9/10).  The Fig 5, 8 and 9/10 sweeps run over a
process pool at either size (:mod:`repro.experiments.parallel`).
"""

from repro.experiments.report import format_series, format_table

__all__ = ["format_series", "format_table"]
