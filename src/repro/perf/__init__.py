"""Performance measurement for the epoch-LP pipeline.

* :mod:`repro.perf.bench` — the ``python -m repro bench`` harness: the
  default HiGHS backend timed on a 20-machine epoch loop and one
  1000-machine scaling row, every model it solved certified optimal by
  :func:`repro.lp.validation.certify`, written to ``BENCH_epoch.json``.
"""
