"""Performance measurement for the epoch-LP pipeline.

* :mod:`repro.perf.bench` — the ``python -m repro bench`` harness: the
  cold reference simplex checked against the default HiGHS backend on an
  epoch loop, sweep throughput and the ``--scaling`` sweep, written to
  ``BENCH_epoch.json``.
"""
