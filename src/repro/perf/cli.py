"""Command-line entry: ``python -m repro.perf``.

Runs the sections of :mod:`repro.perf.sections` and writes
``BENCH.json`` (schema in ``docs/PERF.md``), printing each section's
report.  ``--quick`` trims each section's program and size lists for CI
smoke runs; ``--only SECTION`` (repeatable) restricts the run to a
subset of sections and merges them into the record already at
``--out``, keeping the other sections; ``--json`` prints the written
record to stdout instead of the reports.

Exit status: 0 when the gate of every section run passed, 1 otherwise.
A gate is a correctness or shape check — engine equivalence, max-flow
agreement, the paper's table and figure shapes, equal optima — or a
timing ratio with a wide margin (the serving, solver-scaling and
Section 3.3 bounds); a bare timing never fails the run.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.core.solvers.base import SOLVER_NAMES
from repro.perf.sections import (
    SECTION_NAMES,
    SECTIONS,
    failed_sections,
    merge_payload,
    run_perf,
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf",
        description=(
            "Run the benchmark sections (engines, compiler, serving and "
            "the paper's tables, figures and ablations); write BENCH.json."
        ),
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="small program/size lists, one repetition (CI smoke)",
    )
    parser.add_argument(
        "--repeat", type=int, default=None, metavar="N",
        help="timed repetitions per section, minimum reported "
        "(default 3, or 1 with --quick)",
    )
    parser.add_argument(
        "--solver", choices=SOLVER_NAMES, default="mincut",
        help="speculation solver of the compile and passes sections: the "
        "exact min-cut back end, the linear-time lospre DP, or auto (shape "
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
        help="print the written record to stdout instead of the reports",
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
        for section in SECTIONS:
            if section.name in payload:
                print(section.report(payload[section.name]), end="\n\n")
        print(f"wrote {args.out}")
    failed = failed_sections(payload)
    if failed:
        print(
            f"GATE FAILURE in {', '.join(failed)} - see {args.out}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
