"""The section registry behind ``python -m repro.perf``.

A section is a name, a ``run(quick, repeat)`` that returns its
BENCH.json record, a ``render(record)`` that returns its text report
(by default :func:`render_record`, which prints any record), and the
record key that holds its correctness verdict (None for the two
sections that only measure).  ``quick`` picks the section's small
program set; ``repeat`` is how many times each timed measurement runs,
the minimum reported.
"""

from __future__ import annotations

import platform
import time
from dataclasses import dataclass
from typing import Callable

from repro.bench.passes_cmd import passes_payload, render_passes
from repro.bench.workloads import CFP2006, CINT2006, COMPOSITE, MEMORY
from repro.perf import paper
from repro.perf.bench import (
    BENCH_SCHEMA_VERSION,
    bench_adaptation,
    bench_cluster,
    bench_compile,
    bench_execution,
    bench_iterative,
    bench_memory,
    bench_profiling,
    bench_serving,
    bench_solver_scaling,
)


@dataclass(frozen=True)
class Section:
    name: str
    run: Callable[[bool, int], object]
    #: The text report of a record; None renders it with render_record.
    render: Callable[[object], str] | None = None
    gate: str | None = "ok"

    def report(self, record) -> str:
        if self.render is None:
            return render_record(self.name, record)
        return self.render(record)


#: The head of each classic family, and its first three programs: small
#: enough to run in seconds, large enough that interpreter dispatch
#: dominates.
HEADS = (CINT2006[0], CFP2006[0])
STANDARD = CINT2006[:3] + CFP2006[:3]


def _serving(quick: bool, repeat: int) -> dict:
    requests = 36 if quick else 96
    serving = bench_serving(repeat, requests=requests)
    serving["adaptation"] = bench_adaptation()
    serving["cluster"] = bench_cluster(serving["load_rps"], requests=requests)
    serving["ok"] = bool(
        serving["ok"] and serving["adaptation"]["ok"]
        and serving["cluster"]["ok"]
    )
    return serving


def render_record(name: str, record: dict) -> str:
    """A record as text: its scalars on one line, then each nested
    record, and each list of rows as a table of the rows' scalars."""

    def scalars(d: dict) -> dict:
        return {k: v for k, v in d.items() if not isinstance(v, (dict, list))}

    items = scalars(record).items()
    lines = [f"{name}: " + " ".join(f"{k}={v}" for k, v in items)]
    lines = lines if items else []
    for key, value in record.items():
        if isinstance(value, dict) and value:
            lines.append(render_record(f"{name}.{key}", value))
        elif value and isinstance(value, list) and isinstance(value[0], dict):
            columns = list(scalars(value[0]))
            table = [columns] + [[row.get(c, "") for c in columns] for row in value]
            widths = [max(len(str(v)) for v in column) for column in zip(*table)]
            lines.append(f"{name}.{key}:")
            lines += [
                "  " + "  ".join(f"{v!s:>{w}}" for v, w in zip(row, widths))
                for row in table
            ]
    return "\n".join(lines)


#: Every section, in run order.
SECTIONS = (
    Section(
        "execution",
        lambda quick, repeat: bench_execution(
            HEADS if quick else STANDARD, repeat
        ),
        gate="equivalent",
    ),
    Section(
        "compile",
        lambda quick, repeat: bench_compile(HEADS if quick else STANDARD, repeat),
        gate=None,
    ),
    Section(
        "memory",
        lambda quick, repeat: bench_memory(
            MEMORY[:1] if quick else MEMORY, repeat
        ),
    ),
    # One program per classic family, where the iterative driver must
    # change nothing, plus the composite chains, where second-order
    # redundancy lives.
    Section(
        "iterative",
        lambda quick, repeat: bench_iterative(
            HEADS[:1] + COMPOSITE[:1] if quick else HEADS + COMPOSITE, repeat
        ),
    ),
    # Kill-site counts of the scaling family (the CFG has ~3k+4 blocks).
    Section(
        "solver_scaling",
        lambda quick, repeat: bench_solver_scaling(
            (64, 384) if quick else (64, 128, 256, 512), repeat
        ),
    ),
    Section("serving", _serving),
    # The head of each generated suite: the chord bound and derived-
    # profile parity are checked on integer, floating-point and
    # memory-shaped CFGs alike.
    Section(
        "profiling",
        lambda quick, repeat: bench_profiling(
            HEADS + MEMORY[:1] if quick else STANDARD + MEMORY, repeat
        ),
    ),
    Section("tables", paper.tables, paper.render_tables),
    Section("sec4", paper.sec4, paper.render_sec4),
    Section("ablations", paper.ablations),
    Section("sec33", paper.sec33),
    Section(
        "passes",
        lambda quick, repeat: passes_payload(),
        render_passes, gate=None,
    ),
)

#: Section names accepted by :func:`run_perf`'s ``sections`` filter (and
#: the CLI's ``--only``), in run order.
SECTION_NAMES = tuple(section.name for section in SECTIONS)


def run_perf(
    quick: bool = False,
    repeat: int | None = None,
    sections: tuple[str, ...] | None = None,
) -> dict:
    """Run the benchmark suite; returns the BENCH.json payload.

    ``sections`` restricts the run to a subset of :data:`SECTION_NAMES`
    (None = all); only the sections that ran appear in the payload and
    feed ``payload["ok"]``.  ``payload["ok"]`` is False when any
    correctness gate failed (the CLI turns that into exit status 1).
    """
    if repeat is None:
        repeat = 1 if quick else 3
    chosen = SECTION_NAMES if sections is None else tuple(sections)
    unknown = sorted(set(chosen) - set(SECTION_NAMES))
    if unknown:
        raise ValueError(f"unknown perf section(s): {', '.join(unknown)}")

    t0 = time.perf_counter()
    payload = {
        "schema": BENCH_SCHEMA_VERSION,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }
    for section in SECTIONS:
        if section.name in chosen:
            payload[section.name] = section.run(quick, repeat)
    payload["section_runs"] = {
        name: {"quick": quick, "repeat": repeat}
        for name in SECTION_NAMES if name in payload
    }
    payload["ok"] = not failed_sections(payload)
    payload["wall_time_s"] = round(time.perf_counter() - t0, 3)
    return payload


def failed_sections(payload: dict) -> list[str]:
    """The gated sections present in *payload* whose verdict is false."""
    return [
        section.name
        for section in SECTIONS
        if section.gate and section.name in payload
        and not payload[section.name][section.gate]
    ]


def merge_payload(record: dict, payload: dict) -> dict:
    """*payload*'s sections laid over an existing BENCH.json *record*.

    Sections *payload* did not run keep their recorded numbers and their
    own ``section_runs`` entry (quick/repeat), so ``--only`` refreshes
    part of the record without wiping the rest.  A record of another
    schema version (or anything but a record) is not comparable and is
    replaced outright.
    """
    if not isinstance(record, dict) or record.get("schema") != payload["schema"]:
        return payload
    runs = dict(record.get("section_runs", {}))
    runs.update(payload["section_runs"])
    merged = {
        key: value
        for key, value in payload.items()
        if key not in SECTION_NAMES
        and key not in ("section_runs", "ok", "wall_time_s")
    }
    for name in SECTION_NAMES:
        if name in payload or name in record:
            merged[name] = payload.get(name, record.get(name))
    merged["section_runs"] = {
        name: runs[name] for name in SECTION_NAMES if name in merged
    }
    merged["ok"] = not failed_sections(merged)
    merged["wall_time_s"] = payload["wall_time_s"]
    return merged
