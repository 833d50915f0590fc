"""Benchmark sections and ``BENCH.json``: ``python -m repro.perf``.

Each section of :mod:`repro.perf.sections` measures one thing and gates
it: the compiled execution back end against the reference interpreter,
per-stage compile time, the memory suite, iterative MC-SSAPRE, the
speculation solvers, serving, max flow, chord profiling, and the
paper's evaluation (:mod:`repro.perf.paper`: Tables 1-2, Figures 9-11,
the Section 4 comparison, the ablations, the Section 3.3 scaling sweep
and per-pass reports).  The record's schema is documented in
``docs/PERF.md``; the exit status is 1 when any gate run failed.
"""

from repro.perf.bench import BENCH_SCHEMA_VERSION
from repro.perf.sections import run_perf

__all__ = ["BENCH_SCHEMA_VERSION", "run_perf"]
