"""The ``passes`` record: per-pass observability for the pipeline.

The ``passes`` section of ``python -m repro.perf`` compiles one benchmark
through every variant's pipeline and records each
:class:`~repro.passes.manager.PassReport` — per-pass wall time, IR size
before/after, and analysis-cache hit/miss deltas.  The SSA variants demonstrate the cache paying off: SSA
construction computes the CFG, dominator tree and dominance frontiers
(misses), and because instruction rewriting preserves the CFG, the PRE
stage's FRG construction reuses all three (hits).  The trailing
``mc-ssapre-iter`` report compiles with the rank-ordered iterative
worklist and prints per-round statistics (classes processed, changed,
insertions, reloads, fixpoint-vs-bound).

The record also times ``Function.clone`` against ``copy.deepcopy`` on
the same prepared function — the input-copy fast path the compiler uses
on every compile.
"""

from __future__ import annotations

import copy
import time

from repro.bench.workloads import load_workload
from repro.core.worklist import DEFAULT_ITERATIVE_ROUNDS
from repro.passes.compiler import VARIANTS, PipelineConfig, compile as compile_func
from repro.passes.manager import render_report
from repro.pipeline import prepare
from repro.profiles.interp import run_function

#: The one benchmark the record compiles, which keeps it quick.
DEFAULT_BENCHMARK = "bwaves"


def clone_benchmark(func, reps: int = 20) -> dict:
    """Time ``Function.clone`` vs ``copy.deepcopy`` on *func*."""
    t0 = time.perf_counter()
    for _ in range(reps):
        func.clone()
    clone_s = (time.perf_counter() - t0) / reps
    t0 = time.perf_counter()
    for _ in range(reps):
        copy.deepcopy(func)
    deepcopy_s = (time.perf_counter() - t0) / reps
    return {
        "reps": reps,
        "clone_ms": round(clone_s * 1e3, 3),
        "deepcopy_ms": round(deepcopy_s * 1e3, 3),
        "speedup": round(deepcopy_s / clone_s, 2) if clone_s else float("inf"),
    }


def passes_payload(solver: str = "mincut") -> list[dict]:
    """The per-pass report of every variant on :data:`DEFAULT_BENCHMARK`.

    ``solver`` picks the mc-ssapre speculation back end
    ("mincut"/"lospre"/"auto"); which solver actually ran shows up in
    the mc-ssapre stage's payload summary.
    """
    workload = load_workload(DEFAULT_BENCHMARK)
    prepared = prepare(workload.program.func)
    profile = run_function(prepared, workload.train_args).profile
    mc = PipelineConfig("mc-ssapre", solver=solver)
    reports = [
        compile_func(
            prepared, mc if variant == "mc-ssapre" else variant, profile
        ).report.to_dict()
        for variant in VARIANTS
    ]
    # The iterative twin, so the record shows per-round stats (classes
    # processed, insertions, reloads, fixpoint).
    iterative = compile_func(
        prepared, PipelineConfig(
            "mc-ssapre", rounds=DEFAULT_ITERATIVE_ROUNDS, solver=solver
        ), profile,
    ).report
    iterative.variant = "mc-ssapre-iter"
    reports.append(iterative.to_dict())
    return [{
        "benchmark": DEFAULT_BENCHMARK,
        "clone_vs_deepcopy": clone_benchmark(prepared),
        "reports": reports,
    }]


def render_passes(payload: list[dict]) -> str:
    """Render a :func:`passes_payload` record as text."""
    lines: list[str] = []
    for entry in payload:
        cb = entry["clone_vs_deepcopy"]
        lines.append(f"benchmark: {entry['benchmark']}")
        lines.append(
            f"  input copy: clone {cb['clone_ms']:.3f} ms vs deepcopy "
            f"{cb['deepcopy_ms']:.3f} ms ({cb['speedup']:.1f}x faster, "
            f"avg of {cb['reps']} reps)"
        )
        lines.append("")
        for report in entry["reports"]:
            lines.append(render_report(report))
            lines.append("")
    return "\n".join(lines).rstrip()
