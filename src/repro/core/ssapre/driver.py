"""SSAPRE drivers: safe PRE (compile A) and loop-speculative PRE (B).

`run_ssapre` processes every candidate expression class of a function —
rank-ordered over the shared occurrence index (see
:mod:`repro.core.occurrences`) — rebuilding the FRG for each class on
the current (already partially transformed) function, exactly as a
phased compiler pass would.  Each class goes through:

    Φ-Insertion → Rename → DownSafety [→ loop speculation] →
    WillBeAvail → Finalize → CodeMotion

With ``rounds > 1`` the whole sequence becomes one round of the
:mod:`repro.core.worklist` engine, which feeds CodeMotion's statement
deltas back into the occurrence index and re-runs the newly-exposed
higher-rank classes (second-order redundancy) until fixpoint.

Returns a report per class so benchmarks can count insertions/reloads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.analysis import loop_forest_of
from repro.analysis.dataflow import PREDataflow, solve_pre_dataflow
from repro.analysis.loops import LoopForest
from repro.core.ssapre.codemotion import CodeMotionReport, apply_code_motion
from repro.core.worklist import RoundStats, run_rounds

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.passes.cache import AnalysisCache
from repro.core.ssapre.downsafety import compute_down_safety
from repro.core.ssapre.finalize import finalize
from repro.core.ssapre.frg import FRG, ExprClass, build_frgs
from repro.core.ssapre.speculation import apply_loop_speculation
from repro.core.ssapre.willbeavail import compute_will_be_avail
from repro.ir.function import Function
from repro.ir.verifier import has_critical_edges
from repro.ssa.ssa_verifier import verify_ssa


@dataclass
class PREResult:
    """Aggregate outcome of a PRE run over a whole function."""

    algorithm: str
    reports: list[CodeMotionReport] = field(default_factory=list)
    speculated_phis: int = 0
    round_stats: list[RoundStats] = field(default_factory=list)
    fixpoint: bool = True

    @property
    def total_insertions(self) -> int:
        return sum(r.insertions for r in self.reports)

    @property
    def total_reloads(self) -> int:
        return sum(r.reloads for r in self.reports)

    @property
    def classes_changed(self) -> int:
        return sum(1 for r in self.reports if r.changed)

    @property
    def rounds_run(self) -> int:
        return len(self.round_stats)


def run_safe_steps(
    frg: FRG,
    dataflow: PREDataflow,
    forest: LoopForest | None = None,
) -> int:
    """The per-class safe-PRE step sequence shared by both drivers.

    DownSafety read off the bit-vector anticipability solve *dataflow*,
    optional loop speculation when a *forest* is supplied, then
    WillBeAvail.  Returns the number of phis speculation promoted.  The
    MC driver routes trapping expressions through exactly this sequence,
    so the fallback is the safe algorithm by construction, not a copy.
    """
    compute_down_safety(frg, dataflow)
    speculated = 0
    if forest is not None:
        speculated = apply_loop_speculation(frg, forest)
    compute_will_be_avail(frg)
    return speculated


def run_ssapre(
    func: Function,
    speculate_loops: bool = False,
    validate: bool = False,
    classes: list[ExprClass] | None = None,
    cache: "AnalysisCache | None" = None,
    rounds: int = 1,
) -> PREResult:
    """Run safe SSAPRE (or SSAPREsp when ``speculate_loops``) in place.

    DownSafety is CFG anticipability from one bit-vector solve per round
    (:func:`~repro.core.ssapre.downsafety.compute_down_safety`); the
    WillBeAvail attributes and the SSAPREsp loop chase are
    :func:`~repro.core.ssapre.frg.propagate` over the FRG.  CFG-derived
    analyses (dominators, frontiers, loops) come from *cache* when given.
    ``rounds`` bounds the iterative worklist: 1 (default) is the classic
    one-shot driver; more rounds chase second-order redundancy exposed
    by earlier code motion.
    """
    if has_critical_edges(func):
        raise ValueError(
            "SSAPRE requires critical edges to be split first "
            "(use repro.ir.transforms.split_critical_edges)"
        )
    from repro.passes.cache import AnalysisCache

    cache = AnalysisCache.ensure(func, cache)
    result = PREResult(algorithm="SSAPREsp" if speculate_loops else "SSAPRE")

    def process_round(
        fn: Function, work: list[ExprClass]
    ) -> list[CodeMotionReport]:
        # One shared rename walk and one shared bit-vector solve cover
        # every class of the round: CodeMotion only replaces statements
        # of the class it is processing and introduces fresh
        # temporaries, so neither the other classes' FRGs nor their
        # data-flow facts are invalidated.
        frgs = build_frgs(fn, work, cache=cache)
        dataflow = solve_pre_dataflow(fn, [expr.key for expr in work])
        forest = loop_forest_of(fn, cache) if speculate_loops else None

        reports = []
        for expr in work:
            frg = frgs[expr.key]
            if not frg.real_occs:
                continue
            result.speculated_phis += run_safe_steps(frg, dataflow, forest)
            plan = finalize(frg)
            report = apply_code_motion(fn, plan)
            reports.append(report)
            if validate and report.changed:
                verify_ssa(fn)
        return reports

    run_rounds(
        func, result, process_round,
        classes=classes, rounds=rounds, validate=validate,
    )
    return result
