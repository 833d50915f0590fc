"""Command-line entry: ``python -m repro.check``.

Fuzzes ``--seeds N`` generated programs per shape through every compile
variant, runs the requested oracles, shrinks each failure with the
delta-debugging reducer and writes replayable artifacts plus a
``summary.json`` under ``--out`` (default ``results/check/``).

Examples::

    python -m repro.check --seeds 200 --oracle all --jobs 4
    python -m repro.check --seeds 50 --shape cfp --oracle safety --json
    python -m repro.check --replay results/check/seed7_cint_equiv_....json

Exit status: 0 when every oracle passed (or a replay reproduced its
failure), 1 otherwise.  The ``--json`` summary schema is documented in
``docs/CHECKING.md`` and pinned by ``tests/check/test_cli.py``.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.check.corpus import (
    DEFAULT_OUT_DIR,
    SCHEMA_VERSION,
    replay_artifact,
    write_failure_artifact,
    write_summary,
)
from repro.check.driver import (
    DEFAULT_ENGINE,
    DEFAULT_INPUTS,
    SHAPES,
    failure_predicate,
    run_driver,
)
from repro.check.oracles import DEFAULT_MAX_STEPS, ORACLE_NAMES
from repro.check.reducer import reduce_function
from repro.core.solvers.base import SOLVER_NAMES
from repro.pipeline import ENGINES


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.check",
        description=(
            "Differential-testing harness: fuzz generated programs "
            "through every PRE variant and check the paper's claims."
        ),
    )
    parser.add_argument(
        "--seeds", type=int, default=25, metavar="N",
        help="number of generator seeds per shape (default 25)",
    )
    parser.add_argument(
        "--seed-base", type=int, default=0, metavar="N",
        help="first seed (default 0); seeds run [N, N+seeds)",
    )
    parser.add_argument(
        "--shape", choices=(*SHAPES, "all"), default="all",
        help="program family to fuzz (default all)",
    )
    parser.add_argument(
        "--oracle", choices=(*ORACLE_NAMES, "all"), default="all",
        help="which claim to check (default all)",
    )
    parser.add_argument(
        "--inputs", type=int, default=DEFAULT_INPUTS, metavar="N",
        help=f"argument vectors per case (default {DEFAULT_INPUTS}; "
        "the first trains the profile)",
    )
    parser.add_argument(
        "--max-steps", type=int, default=DEFAULT_MAX_STEPS, metavar="N",
        help="interpreter step budget per run",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes; seeds are sharded and the summary is "
        "identical to a single-process run modulo timing (default 1)",
    )
    parser.add_argument(
        "--engine", choices=ENGINES, default=DEFAULT_ENGINE,
        help="execution back end for variant runs; the control always "
        f"uses the reference interpreter (default {DEFAULT_ENGINE})",
    )
    parser.add_argument(
        "--solver", choices=SOLVER_NAMES, default="mincut",
        help="speculation solver for the mc-ssapre variants: the exact "
        "min-cut back end, the linear-time lospre DP, or auto (shape "
        "classifier picks per function).  The mc-ssapre-lospre twin "
        "always runs regardless (default mincut)",
    )
    parser.add_argument(
        "--out", default=str(DEFAULT_OUT_DIR), metavar="DIR",
        help="artifact directory (default results/check)",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="print the machine-readable summary instead of text",
    )
    parser.add_argument(
        "--no-reduce", action="store_true",
        help="skip delta-debugging reduction of failures",
    )
    parser.add_argument(
        "--replay", metavar="ARTIFACT",
        help="re-run one stored .json artifact instead of fuzzing",
    )
    return parser


def _replay(path: str, as_json: bool) -> int:
    reproduced, result = replay_artifact(path)
    if as_json:
        print(json.dumps({
            "schema": SCHEMA_VERSION,
            "artifact": path,
            "reproduced": reproduced,
            "failures": [f.to_dict() for f in result.failures],
        }, indent=2))
    else:
        verdict = "reproduced" if reproduced else "DID NOT reproduce"
        print(f"replay of {path}: {verdict} "
              f"({len(result.failures)} failure(s) observed)")
        for failure in result.failures:
            print(f"  {failure.oracle}/{failure.kind} [{failure.variant}] "
                  f"{failure.detail}")
    return 0 if reproduced else 1


def main(argv: list[str] | None = None) -> int:
    args = build_arg_parser().parse_args(argv)
    if args.replay:
        return _replay(args.replay, args.json)

    shapes = SHAPES if args.shape == "all" else (args.shape,)
    oracles = ORACLE_NAMES if args.oracle == "all" else (args.oracle,)

    def progress(result):
        if not args.json and not result.passed:
            print(f"FAIL seed={result.seed} shape={result.shape}: "
                  f"{len(result.failures)} failure(s)", file=sys.stderr)

    stats, failing = run_driver(
        args.seeds,
        shapes,
        oracles,
        seed_base=args.seed_base,
        n_inputs=args.inputs,
        max_steps=args.max_steps,
        on_case=progress,
        engine=args.engine,
        jobs=max(1, args.jobs),
        solver=args.solver,
    )

    artifacts: list[str] = []
    for result in failing:
        # The reducer's predicate matches only (oracle, kind, variant),
        # so one reduction and one artifact serve every failure of a
        # triple (one per input, typically).
        distinct = {}
        for failure in result.failures:
            distinct.setdefault(
                (failure.oracle, failure.kind, failure.variant), failure
            )
        for failure in distinct.values():
            reduction = None
            if not args.no_reduce and result.case is not None:
                predicate = failure_predicate(
                    result.seed, result.shape, failure,
                    n_inputs=args.inputs, max_steps=args.max_steps,
                )
                try:
                    reduction = reduce_function(
                        result.case.source, predicate
                    )
                except ValueError:
                    reduction = None  # flaky failure; keep the original
            artifacts.append(str(write_failure_artifact(
                args.out, result, failure, reduction
            )))

    summary = {
        "schema": SCHEMA_VERSION,
        "seeds": args.seeds,
        "seed_base": args.seed_base,
        "shapes": list(shapes),
        "oracles": list(oracles),
        "engine": args.engine,
        "jobs": max(1, args.jobs),
        "solver": args.solver,
        "passed": stats.failures == 0 and not stats.interrupted,
        "artifacts": artifacts,
        **stats.to_dict(),
    }
    write_summary(args.out, summary)

    if args.json:
        print(json.dumps(summary, indent=2))
    else:
        print(f"checked {summary['cases']} cases "
              f"({args.seeds} seeds x {len(shapes)} shape(s), "
              f"oracles: {', '.join(oracles)}) "
              f"in {summary['wall_time_s']}s")
        for name, counts in summary["per_oracle"].items():
            print(f"  {name:<8} {counts['checks']:>7} checks  "
                  f"{counts['failures']:>3} failures")
        if summary["skipped"]:
            print(f"  skipped  {summary['skipped']} uncheckable case(s)")
        if summary["interrupted"]:
            print(f"INTERRUPTED ({stats.interrupt_reason}): partial "
                  "statistics over the completed shards only",
                  file=sys.stderr)
        if artifacts:
            print("artifacts:")
            for path in artifacts:
                print(f"  {path}")
        print("PASS" if summary["passed"] else "FAIL")
    return 0 if summary["passed"] else 1
