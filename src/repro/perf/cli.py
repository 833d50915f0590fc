"""Command-line entry: ``python -m repro.perf``.

Runs the pinned benchmark suite and writes ``BENCH.json`` (schema in
``docs/PERF.md``).  ``--quick`` trims the workload and network lists for
CI smoke runs; ``--only SECTION`` (repeatable) restricts the run to a
subset of sections and merges them into the record already at
``--out``, keeping the other sections; ``--json`` prints the written
record to stdout as well.  The exit status gates only the sections run.

Exit status: 0 when every correctness gate passed, 1 otherwise — the
timings themselves never fail the run (they are environment-dependent);
a compiled-vs-reference divergence, a Dinic-vs-Edmonds-Karp
disagreement, or an iterative-PRE regression (dynamic cost higher than
one-shot anywhere, or no strict win on the composite suite) does.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.core.solvers.base import SOLVER_NAMES
from repro.perf.bench import SECTION_NAMES, merge_payload, run_perf


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf",
        description=(
            "Benchmark the compiled execution back end, the compile "
            "pipeline and the max-flow solvers; write BENCH.json."
        ),
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="small workload/network lists, one repetition (CI smoke)",
    )
    parser.add_argument(
        "--repeat", type=int, default=None, metavar="N",
        help="timed repetitions per section, minimum reported "
        "(default 3, or 1 with --quick)",
    )
    parser.add_argument(
        "--solver", choices=SOLVER_NAMES, default="mincut",
        help="speculation solver the compile section times: the exact "
        "min-cut back end, the linear-time lospre DP, or auto (shape "
        "classifier picks per function); the solver-scaling section "
        "always measures both (default mincut)",
    )
    parser.add_argument(
        "--only", action="append", choices=SECTION_NAMES, default=None,
        metavar="SECTION",
        help="run only this section (repeatable) and merge it into the "
        "record at --out; the exit-status gates cover just the sections run",
    )
    parser.add_argument(
        "--out", default="BENCH.json", metavar="PATH",
        help="output path (default BENCH.json)",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="also print the payload to stdout",
    )
    args = parser.parse_args(argv)

    payload = run_perf(
        quick=args.quick, repeat=args.repeat, solver=args.solver,
        sections=tuple(args.only) if args.only else None,
    )
    out = Path(args.out)
    record = payload
    if args.only and out.exists():
        try:
            record = merge_payload(json.loads(out.read_text()), payload)
        except ValueError:
            record = payload  # not JSON: start a fresh record
    text = json.dumps(record, indent=2) + "\n"
    out.write_text(text)

    if args.json:
        print(text, end="")
    else:
        if "execution" in payload:
            execution = payload["execution"]
            print(f"execution: {execution['speedup']}x compiled over "
                  f"reference ({execution['total_reference_s']}s -> "
                  f"{execution['total_compiled_s']}s, "
                  f"equivalent={execution['equivalent']})")
        if "compile" in payload:
            print(f"compile:   {payload['compile']['total_s']}s over "
                  f"{payload['compile']['functions']} function(s)")
        if "memory" in payload:
            memory = payload["memory"]
            spec_hoist = memory["speculation"]["hoist"]
            spec_blocked = memory["speculation"]["blocked"]
            print(f"memory:    {memory['speedup']}x compiled over reference "
                  f"(gate {memory['min_speedup']}x, "
                  f"equivalent={memory['equivalent']})")
            print(f"memory:    hoist cost {spec_hoist['safe_cost']} -> "
                  f"{spec_hoist['mc_cost']} "
                  f"(loads {spec_hoist['safe_loads']} -> "
                  f"{spec_hoist['mc_loads']}, ok={spec_hoist['ok']}), "
                  f"blocked loads {spec_blocked['mc_loads']}"
                  f"/{spec_blocked['control_loads']} "
                  f"(ok={spec_blocked['ok']})")
        if "iterative" in payload:
            iterative = payload["iterative"]
            for row in iterative["workloads"]:
                print(f"iterative: {row['name']:<10} "
                      f"{row['rounds_run']} round(s)  cost "
                      f"{row['oneshot_dynamic_cost']} -> "
                      f"{row['iterative_dynamic_cost']}  "
                      f"(compile x{row['compile_overhead']})")
            print(f"iterative: never_higher={iterative['never_higher']} "
                  f"strict_win={iterative['strict_win']} "
                  f"equivalent={iterative['equivalent']}")
        if "solver_scaling" in payload:
            scaling = payload["solver_scaling"]
            for row in scaling["sizes"]:
                print(f"solver:    {row['kills']:>4} kills "
                      f"({row['blocks']} blocks)  "
                      f"mincut {row['mincut_solve_s']}s  "
                      f"lospre {row['lospre_solve_s']}s  "
                      f"({row['solver_speedup']}x, width {row['max_width']})")
            print(f"solver:    speedup {scaling['speedup_at_largest']}x at "
                  f"largest size (gate {scaling['min_speedup']}x), "
                  f"equivalent={scaling['equivalent']} "
                  f"accepted={scaling['accepted']}")
        if "serving" in payload:
            serving = payload["serving"]
            print(f"serving:   {serving['speedup']}x warm over cold "
                  f"({serving['cold_s']}s -> {serving['warm_s']}s per "
                  f"{serving['unique']} request(s), "
                  f"equivalent={serving['equivalent']})")
            print(f"serving:   cold solver=auto request "
                  f"{serving['cold_auto_s']}s (ok={serving['auto_ok']})")
            print(f"serving:   hit rate {serving['hit_rate']} "
                  f"(admits {serving['expected_hit_rate']}), "
                  f"{serving['mismatches']} mismatch(es), "
                  f"coalescing {serving['coalescing']['compiles']} "
                  f"compile(s) for {serving['coalescing']['clients']} "
                  f"client(s)")
            adaptation = serving["adaptation"]
            print(f"serving:   adaptation "
                  f"promotions={adaptation['promotions']} "
                  f"drift_events={adaptation['drift_events']} "
                  f"hot_swaps={adaptation['hot_swaps']} "
                  f"non_blocking={adaptation['non_blocking_ok']} "
                  f"swap_identical={adaptation['swap_identical']} "
                  f"(ok={adaptation['ok']})")
            cluster = serving["cluster"]
            print(f"serving:   cluster {cluster['achieved_rps']} req/s over "
                  f"{cluster['workers']} worker(s) "
                  f"({cluster['rps_ratio']}x single, gate "
                  f"{cluster['min_rps_ratio']}x), p99 {cluster['p99_s']}s "
                  f"(max {cluster['p99_max_s']}s), "
                  f"race compiles={cluster['race']['compiles']} "
                  f"(ok={cluster['ok']})")
        if "maxflow" in payload:
            for row in payload["maxflow"]["networks"]:
                print(f"maxflow:   {row['nodes']}n/{row['edges']}e  "
                      f"dinic {row['dinic_s']}s  "
                      f"ek {row['edmonds_karp_s']}s  "
                      f"({row['ek_over_dinic']}x)")
        if "profiling" in payload:
            profiling = payload["profiling"]
            for row in profiling["workloads"]:
                print(f"profiling: {row['name']:<10} "
                      f"{row['chords']}/{row['edges']} edges counted "
                      f"(bound {row['bound']})  events "
                      f"{row['full_events']} -> {row['chord_events']} "
                      f"({row['event_ratio']}x)")
            for row in profiling["quality"]:
                print(f"profiling: {row['name']:<10} quality delta "
                      f"recon {row['delta_reconstructed']}  "
                      f"sampled {row['delta_sampled']}  "
                      f"stale {row['delta_stale']}")
            print(f"profiling: event ratio {profiling['event_ratio']}x "
                  f"(gate {profiling['min_event_ratio']}x), "
                  f"bounds_ok={profiling['bounds_ok']} "
                  f"equivalent={profiling['equivalent']} "
                  f"quality_ok={profiling['quality_ok']} "
                  f"(ok={profiling['ok']})")
        print(f"wrote {args.out}")
    if not payload["ok"]:
        print(
            "EQUIVALENCE, ITERATIVE, SOLVER, SERVING OR PROFILING GATE "
            "FAILURE - see BENCH.json",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
