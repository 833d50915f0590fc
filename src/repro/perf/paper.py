"""The paper's evaluation as ``repro.perf`` sections.

``tables`` (Tables 1-2, Figures 9-11), ``sec4`` (EFG vs MC-PRE flow
networks), ``ablations`` (Theorem 9 lifetimes, node-frequency
sufficiency, the Section 6 code-size objective) and ``sec33`` (the
Section 3.3 scaling sweep).  Each ``*_record`` function is pure: it
turns measurements into the section's record, gates included, so every
gate can be checked on fabricated inputs.  The deterministic sections
fan programs over :func:`~repro.parallel.parallel_map`; their rows do
not depend on the worker count.
"""

from __future__ import annotations

import os
from dataclasses import asdict

from repro.bench.ablations import (
    LifetimeAblation,
    ProfileAblation,
    compile_for_size,
    lifetime_ablation,
    profile_ablation,
)
from repro.bench.comparison import (
    SizeComparison,
    compare_workload,
    render_comparison,
)
from repro.bench.figures import EFGSizeDistribution, figure9, figure10, figure11
from repro.bench.generator import ProgramSpec, generate_program, random_args
from repro.bench.tables import Table, TableRow, build_table
from repro.bench.workloads import CFP2006, CINT2006
from repro.core.mcssapre.driver import run_mc_ssapre
from repro.core.ssapre.frg import collect_expr_classes
from repro.parallel import parallel_map
from repro.perf.bench import _best_of
from repro.pipeline import prepare
from repro.profiles.interp import run_function
from repro.ssa.construct import construct_ssa

#: A quick run's programs, four per family; a full run takes all 29.
QUICK_CINT = ("perlbench", "mcf", "sjeng", "omnetpp")
QUICK_CFP = ("milc", "dealII", "tonto", "sphinx3")
#: Quick runs of the sections that compile MC-PRE skip these three:
#: their MC-PRE compiles take most of such a run's time.
SLOW_MCPRE = ("perlbench", "mcf", "omnetpp")


def suite(quick: bool, mcpre: bool = False) -> tuple[str, ...]:
    """The programs a section measures."""
    if not quick:
        return CINT2006 + CFP2006
    return tuple(
        name for name in QUICK_CINT + QUICK_CFP
        if not (mcpre and name in SLOW_MCPRE)
    )


def _jobs() -> int:
    return os.cpu_count() or 1


def _map(fn, names):
    return parallel_map(fn, names, jobs=_jobs())


def _gated(record: dict, gates: dict[str, bool]) -> dict:
    return {**record, "gates": gates, "ok": all(gates.values())}


def _gate_line(record: dict) -> str:
    failed = [name for name, ok in record["gates"].items() if not ok]
    return "gates: " + ("FAILED " + ", ".join(failed) if failed else "ok")


# Tables 1-2, Figures 9-11 ---------------------------------------------

TABLE1_TITLE = "Table 1: CINT2006 dynamic costs and speedup ratios of MC-SSAPRE"
TABLE2_TITLE = "Table 2: CFP2006 dynamic costs and speedup ratios of MC-SSAPRE"

#: Per-row slack of C over A: train and ref inputs differ, as in the
#: paper, so profile-guided C may lose a little on one program.
C_SLACK = 1.03


def tables(quick: bool, repeat: int, solver: str) -> dict:
    cint, cfp = (QUICK_CINT, QUICK_CFP) if quick else (CINT2006, CFP2006)
    return tables_record(
        build_table(cint, TABLE1_TITLE, _jobs()),
        build_table(cfp, TABLE2_TITLE, _jobs()),
    )


def tables_record(cint: Table, cfp: Table) -> dict:
    """Gates: C within :data:`C_SLACK` of A per row; positive average
    speedups over A; over B a positive one on CINT, a non-negative and
    smaller one on the loop-dominated CFP; positive Figure 9 bars; B
    below A on half the CFP rows; Figure 11's small-EFG shape above the
    Section 5.2 floor of 4 nodes."""
    dist = figure11([cint, cfp])
    fig10 = figure10(cfp).series()
    return _gated(
        {
            "table1": _table_record(cint),
            "table2": _table_record(cfp),
            "fig11": {
                "histogram": {str(k): v for k, v in dist.histogram().items()},
                "total": dist.total,
                "minimum": dist.minimum,
                "share_at_4": round(dist.share_at(4), 4),
                "at_most_10": round(dist.cumulative_at_most(10), 4),
                "at_most_50": round(dist.cumulative_at_most(50), 4),
            },
        },
        {
            "c_within_a": all(
                r.c_cost <= r.a_cost * C_SLACK for r in cint.rows + cfp.rows
            ),
            "a_averages_positive": min(
                cint.average_speedup_a, cfp.average_speedup_a
            ) > 0,
            "cint_b_average_positive": cint.average_speedup_b > 0,
            "cfp_b_average_nonnegative": cfp.average_speedup_b >= 0,
            "cfp_b_gap_below_cint": cfp.average_speedup_b < cint.average_speedup_b,
            "fig9_bars_positive": all(
                b > 0 and c > 0 for _, _, b, c in figure9(cint).series()
            ),
            "fig10_b_below_one": sum(b < 1.0 for _, _, b, _ in fig10)
            >= len(fig10) // 2,
            "fig11_minimum_4": dist.total > 0 and dist.minimum >= 4,
            "fig11_share_at_4": dist.share_at(4) >= 0.25,
            "fig11_at_most_10": dist.cumulative_at_most(10) >= 0.80,
            "fig11_at_most_50": dist.cumulative_at_most(50) >= 0.95,
        },
    )


def _table_record(table: Table) -> dict:
    return {
        "title": table.title,
        "rows": [
            {k: getattr(r, k) for k in ("benchmark", "a_cost", "b_cost", "c_cost")}
            for r in table.rows
        ],
        "average_speedup_a": round(table.average_speedup_a, 6),
        "average_speedup_b": round(table.average_speedup_b, 6),
    }


def render_tables(record: dict) -> str:
    t1, t2 = (
        Table(record[key]["title"], [TableRow(**r) for r in record[key]["rows"]])
        for key in ("table1", "table2")
    )
    histogram = record["fig11"]["histogram"].items()
    dist = EFGSizeDistribution([int(s) for s, n in histogram for _ in range(n)])
    return "\n\n".join([
        t1.render(), t2.render(), figure9(t1).render(), figure10(t2).render(),
        dist.render(), _gate_line(record),
    ])


# Section 4: EFG vs MC-PRE flow networks -------------------------------

def sec4(quick: bool, repeat: int, solver: str) -> dict:
    return sec4_record(_map(compare_workload, suite(quick, mcpre=True)))


def sec4_record(comparisons: list[SizeComparison]) -> dict:
    """Gates: equal optima on every program, a smaller average network
    than MC-PRE's wherever an EFG formed, and at least 2x less total
    min-cut effort (sum of V^2 * E)."""
    efg_effort = sum(c.efg_effort for c in comparisons)
    mcpre_effort = sum(c.mcpre_effort for c in comparisons)
    return _gated(
        {
            "programs": [c.row() for c in comparisons],
            "efg_effort": efg_effort,
            "mcpre_effort": mcpre_effort,
        },
        {
            "equal_optima": all(
                c.mc_ssapre_cost == c.mc_pre_cost for c in comparisons
            ),
            "smaller_networks": all(
                c.mcpre_nodes and sum(c.efg_nodes) / len(c.efg_nodes)
                < sum(c.mcpre_nodes) / len(c.mcpre_nodes)
                for c in comparisons if c.efg_nodes
            ),
            "effort_halved": efg_effort * 2 < mcpre_effort,
        },
    )


def render_sec4(record: dict) -> str:
    return (
        f"{render_comparison(record['programs'])}\ntotal effort: EFG "
        f"{record['efg_effort']} vs MC-PRE {record['mcpre_effort']}\n"
        f"{_gate_line(record)}"
    )


# Ablations: lifetime, node-frequency sufficiency, code size -----------

def ablations(quick: bool, repeat: int, solver: str) -> dict:
    names = suite(quick)
    pairs = _map(_lifetime_and_size, names)
    return ablations_record(
        [lifetime for lifetime, _ in pairs],
        _map(profile_ablation, suite(quick, mcpre=True)),
        [(n, *size) for n, (_, size) in zip(names, pairs)],
    )


def _lifetime_and_size(name: str) -> tuple[LifetimeAblation, tuple[int, int]]:
    return lifetime_ablation(name), compile_for_size(name)


def ablations_record(
    lifetime: list[LifetimeAblation],
    profiles: list[ProfileAblation],
    sizes: list[tuple[str, int, int]],
) -> dict:
    """Gates: the sink-side cut keeps the cost, never lengthens live
    ranges or weighted pressure, and shortens both over the set
    (Theorem 9); node frequencies give MC-SSAPRE the full-profile output
    and MC-PRE's optimal counts; a unit profile never adds a static
    computation and removes some over the set."""
    lifetime_rows = [
        {"name": r.name} | {
            f"{side}_{key}": value
            for side in ("late", "early")
            for key, value in asdict(getattr(r, side)).items()
        }
        for r in lifetime
    ]
    totals = {
        f"{side}_{key}": sum(row[f"{side}_{key}"] for row in lifetime_rows)
        for side in ("late", "early")
        for key in ("live_range", "pressure")
    }
    before, after = (sum(s[i] for s in sizes) for i in (1, 2))
    return _gated(
        {
            "lifetime": {"programs": lifetime_rows, **totals},
            "profiles": {"programs": [asdict(r) for r in profiles]},
            "size": {
                "programs": [
                    {"name": n, "before": b, "after": a} for n, b, a in sizes
                ],
                "before": before,
                "after": after,
            },
        },
        {
            "lifetime": all(
                r.late.cost == r.early.cost
                and r.late.live_range <= r.early.live_range
                and r.late.pressure <= r.early.pressure
                for r in lifetime
            )
            and totals["late_live_range"] < totals["early_live_range"]
            and totals["late_pressure"] < totals["early_pressure"],
            "profiles": all(
                r.identical_output and r.counts_match_mcpre for r in profiles
            ),
            "size": all(a <= b for _, b, a in sizes) and after < before,
        },
    )


# Section 3.3: compile-time scaling ------------------------------------

#: Generator ``region_length`` of each point; programs grow from ~180 to
#: ~14,000 statements.
SEC33_SIZES = (3, 5, 8, 12)

#: Bound on the growth of MC-SSAPRE time per (statement x class) from
#: the smallest program to the largest: per class the work is linear in
#: the FRG, so the unit cost must stay flat up to noise.
SEC33_MAX_UNIT_RATIO = 4.0


def sec33(quick: bool, repeat: int, solver: str) -> dict:
    return sec33_record([sec33_point(size, repeat) for size in SEC33_SIZES])


def sec33_point(region_length: int, repeat: int) -> dict:
    """MC-SSAPRE time on one generated program, best of ``repeat``."""
    spec = ProgramSpec(
        name=f"scale{region_length}", seed=7, region_length=region_length,
        max_depth=3, loop_mask_bits=3,
    )
    prepared = prepare(generate_program(spec).func)
    profile = run_function(prepared, random_args(spec, 1)).profile.nodes_only()
    ssa = prepared.clone()
    construct_ssa(ssa)
    # Each repeat optimises its own copy; only the optimisation is timed.
    copies = iter([ssa.clone() for _ in range(max(1, repeat))])
    elapsed, result = _best_of(repeat, lambda: run_mc_ssapre(next(copies), profile))
    statements = prepared.statement_count()
    classes = len(collect_expr_classes(ssa))
    return {
        "region_length": region_length,
        "statements": statements,
        "classes": classes,
        "compile_s": round(elapsed, 6),
        "unit_ns": round(elapsed / (statements * classes) * 1e9, 2),
        "largest_efg": max(result.efg_sizes(), default=0),
    }


def sec33_record(points: list[dict]) -> dict:
    """Gate: the unit cost at the largest size stays below
    :data:`SEC33_MAX_UNIT_RATIO` times the unit cost at the smallest."""
    small, large = (
        p["compile_s"] / (p["statements"] * p["classes"])
        for p in (points[0], points[-1])
    )
    return _gated(
        {
            "sizes": points,
            "unit_ratio": round(large / small, 3),
            "max_unit_ratio": SEC33_MAX_UNIT_RATIO,
        },
        {"unit_cost_flat": large / small < SEC33_MAX_UNIT_RATIO},
    )
