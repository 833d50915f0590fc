"""End-to-end benchmark of the FDO compile pipeline and the compile service.

Run from the repository root:

    python3 perfbench/run.py --workload serve-warm --seed 0 --seconds 20 --trace 0

Workloads: ``fdo-suite``, ``serve-warm``, ``serve-churn`` (see
``perfbench/README.md`` for why each was chosen), or ``all`` to run the
three in turn, each in a fresh process.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs untraced and then traced passes
and reports the per-layer metrics and the tracing overhead.  The last
line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0
only when every answer matched the reference interpreter and every exact
value repeated.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Exact values from earlier runs, keyed by workload, seed and code hash;
#: also the scratch directory of the disk-backed store.
STATE = ROOT / ".perfbench"
WORKLOADS = ("fdo-suite", "serve-warm", "serve-churn")
#: Set-up is repeated and its median reported, so set-up time is steady.
SETUP_REPEATS = 3


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def best_latencies(passes: list) -> list[float]:
    """Each operation's best latency over *passes*.

    Every pass replays the same operations from the same state, so the
    best of them filters out the host's speed swings (up to 1.8x between
    seconds on a shared VM), while a change to the code moves them all.
    """
    return [min(times) for times in zip(*(r.latencies for r in passes))]


def code_hash() -> str:
    """Identity of the code under test: every source file and this benchmark."""
    digest = hashlib.sha256()
    files = sorted((ROOT / "src").rglob("*.py")) + sorted(Path(__file__).parent.glob("*.py"))
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def check_repeat(workload: str, seed: int, exact: dict) -> str | None:
    """Compare *exact* with an earlier run of the same code and seed."""
    path = STATE / "exact" / f"{workload}-{seed}-{code_hash()}.json"
    rendered = json.dumps(exact, sort_keys=True)
    if path.exists():
        earlier = path.read_text()
        if earlier != rendered:
            return f"exact values differ from an earlier run: {earlier} != {rendered}"
        return None
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{time.time_ns()}.tmp")
    tmp.write_text(rendered)
    tmp.replace(path)
    return None


def run_passes(workload, tracer, seconds: float, at_least: int = 1) -> list:
    """Whole passes until *seconds* have passed and *at_least* are done."""
    results = []
    start = time.perf_counter()
    while True:
        results.append(workload.run_pass(tracer))
        if results[-1].failures or (
            len(results) >= at_least and time.perf_counter() - start >= seconds
        ):
            return results


def make_workload(name: str, seed: int):
    import workloads

    if name == "fdo-suite":
        return workloads.FdoSuite(seed)
    if name == "serve-warm":
        return workloads.ServeWarm(seed)
    scratch = STATE / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    return workloads.ServeChurn(seed, scratch)


def measure(args) -> tuple[dict, list, list[str], list[str]]:
    """One run: ``(metrics, passes, failures, human-readable lines)``."""
    import spans

    workload = make_workload(args.workload, args.seed)
    lines = []
    try:
        if not args.trace:
            setup_s = []
            for _ in range(SETUP_REPEATS):
                gc.collect()  # the previous set-up's garbage is not this one's
                start = time.perf_counter()
                workload.setup()
                setup_s.append(time.perf_counter() - start)
            gc.collect()
            # Two passes at least, so every op has a best of two readings.
            passes = run_passes(workload, spans.NullTracer(), args.seconds, 2)
            latencies = best_latencies(passes)
            metrics = {
                "setup_s": (statistics.median(setup_s), "s"),
                "ops_per_s": (len(latencies) / math.fsum(latencies), "1/s"),
                "latency_p50_ms": (percentile(latencies, 0.50) * 1e3, "ms"),
                "latency_p95_ms": (percentile(latencies, 0.95) * 1e3, "ms"),
                "peak_rss_mb": (
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"
                ),
            }
            exact = passes[0].exact
            for name in ("dynamic_cost_ratio_gm", "code_size_ratio_gm"):
                if name in exact:
                    metrics[name] = (exact[name], "ratio")
            lines.append(
                f"{len(passes)} pass(es) of {len(latencies)} ops, "
                f"set-ups {', '.join(f'{s:.3f}' for s in setup_s)} s"
            )
        else:
            workload.setup()
            gc.collect()
            half = args.seconds / 2
            untraced = run_passes(workload, spans.NullTracer(), half)
            tracer = spans.Tracer()
            workload.trace_store(tracer)
            with tracer.layers():
                passes = run_passes(workload, tracer, half)
            passes = untraced + passes
            traced = passes[len(untraced):]
            plain = math.fsum(best_latencies(untraced))
            overhead = math.fsum(best_latencies(traced)) - plain
            metrics = {
                name: (value, _unit(name))
                for name, value in tracer.per_layer(workload.root, len(traced)).items()
            }
            metrics["trace.overhead_s"] = (overhead, "s")
            lines.append(
                f"{len(untraced)} untraced + {len(traced)} traced pass(es); "
                f"tracing overhead {overhead:+.4f} s per pass "
                f"({overhead / plain:+.1%})"
            )
            lines.append("self-time share of traced op time:")
            lines += [
                f"  {share:7.2%}  {name}" for name, share in tracer.shares(workload.root)
            ]
    finally:
        workload.close()

    failures = [failure for result in passes for failure in result.failures]
    if not failures:
        exacts = {json.dumps(r.exact, sort_keys=True) for r in passes}
        if len(exacts) != 1:
            failures.append(f"exact values differ between passes: {sorted(exacts)}")
        else:
            difference = check_repeat(args.workload, args.seed, passes[0].exact)
            if difference:
                failures.append(difference)
        lines.append(f"exact: {json.dumps(passes[0].exact, sort_keys=True)}")
    if args.trace and tracer.violations:
        failures.append(f"{tracer.violations} span(s) shorter than their children")
    return metrics, passes, failures, lines


def _unit(name: str) -> str:
    suffix = name.rsplit(".", 1)[-1]
    if suffix.endswith("_s"):
        return "s"
    if suffix.endswith("ratio"):
        return "ratio"
    if suffix == "bytes":
        return "bytes"
    return "count"


def run_one(args) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    metrics, passes, failures, lines = measure(args)
    attempted = sum(len(r.latencies) for r in passes)
    errors = sum(len(r.failures) for r in passes)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for line in lines:
        print(line)
    if not args.trace:
        print(f"  {'error_rate':<24} {errors / attempted:.6g} ratio")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<24} {value:.6g} {unit}")
    for failure in failures[:20]:
        print(f"FAILURE: {failure}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if not failures else 1


def run_all(args) -> int:
    """Every workload in turn, each in a fresh process (own peak RSS)."""
    worst = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            check=False,
        )
        worst = max(worst, proc.returncode)
    return worst


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
