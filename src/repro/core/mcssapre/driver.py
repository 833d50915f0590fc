"""The MC-SSAPRE driver — the ten steps of paper Figure 4.

    1.  Φ-Insertion          (shared with SSAPRE)
    2.  Rename               (shared, plus rg_excluded marking)
    3.  Data flow            sparse full availability / partial anticipability
    4.  Graph reduction      reduced SSA graph
    5-7. Speculation solver  placement decision → insert flags
    8.  WillBeAvail          forward propagation from the insert flags
    9.  Finalize             (shared with SSAPRE)
    10. CodeMotion           (shared with SSAPRE)

Steps 5–7 — build the essential flow graph and cut it — are one
*placement decision* behind the :class:`~repro.core.solvers.base.SpeculationSolver`
interface: the paper's flow-network reduction
(:class:`~repro.core.solvers.mincut.MinCutSolver`) and the linear-time
tree-decomposition DP (:class:`~repro.core.solvers.lospre.LospreSolver`)
are interchangeable back ends that must produce the identical,
lifetime-optimal cut.  ``solver="auto"`` classifies the CFG shape once
per function and routes tractable graphs to lospre.

Speculation requires an execution profile with **node frequencies only**;
the driver deliberately accepts a profile whose edge map is empty.
Trapping expressions (div/mod/…) are never speculated: for those classes
the driver runs the safe SSAPRE steps 3–4 instead, mirroring how the
paper's compiler excludes exception-throwing computations (Section 2).

Even when an expression has no strictly-partially-redundant occurrence
(empty reduced graph), steps 8–10 still run so fully redundant
occurrences are deleted — MC-SSAPRE handles local and global redundancy
uniformly (Section 4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.passes.cache import AnalysisCache
from repro.core.mcssapre.dataflow import solve_step3
from repro.core.mcssapre.reduction import build_reduced_graph
from repro.core.mcssapre.willbeavail import compute_will_be_avail_from_cut
from repro.core.solvers.base import SolverDecision, SpeculationSolver
from repro.core.solvers.mincut import MinCutSolver
from repro.core.solvers.shape import select_solver
from repro.core.ssapre.codemotion import CodeMotionReport, apply_code_motion
from repro.core.ssapre.driver import PREResult, run_safe_steps
from repro.core.ssapre.finalize import finalize
from repro.core.ssapre.frg import ExprClass, build_frgs
from repro.core.worklist import run_rounds
from repro.ir.function import Function
from repro.ir.memory import key_may_trap
from repro.ir.verifier import has_critical_edges
from repro.profiles.profile import ExecutionProfile
from repro.ssa.ssa_verifier import verify_ssa


@dataclass
class EFGStats:
    """Per-class placement statistics (feeds Figure 11 / Section 4)."""

    expr: str
    nodes: int
    edges: int
    cut_value: int
    insertions: int
    #: Which solver produced this class's placement.
    solver: str = "mincut"
    #: Elimination width achieved (lospre placements only).
    width: int | None = None


@dataclass
class MCPREResult(PREResult):
    """PRE result extended with MC-specific statistics."""

    efg_stats: list[EFGStats] = field(default_factory=list)
    trapping_fallbacks: int = 0
    #: The solver knob as requested ("mincut"/"lospre"/"auto") and the
    #: lane it resolved to for this function ("mincut"/"lospre").
    solver_requested: str = "mincut"
    solver_used: str = "mincut"
    #: CFG elimination width from the shape classifier (None when the
    #: classifier never ran, i.e. a forced min cut).
    shape_width: int | None = None
    #: Classes where the lospre DP refused (width overflow) and the
    #: placement fell back to the min cut.
    lospre_refusals: int = 0

    def efg_sizes(self) -> list[int]:
        return [s.nodes for s in self.efg_stats]


def run_mc_ssapre(
    func: Function,
    profile: ExecutionProfile,
    validate: bool = False,
    classes: list[ExprClass] | None = None,
    sink_closest: bool = True,
    cache: "AnalysisCache | None" = None,
    rounds: int = 1,
    solver: "str | SpeculationSolver" = "mincut",
) -> MCPREResult:
    """Run MC-SSAPRE over every candidate class of *func*, in place.

    ``solver`` picks the speculation back end: ``"mincut"`` (the paper's
    flow network), ``"lospre"`` (the linear-time DP, with per-class
    fallback to the min cut on width overflow), ``"auto"`` (classify the
    CFG, then lospre where tractable), or a ready
    :class:`~repro.core.solvers.base.SpeculationSolver` instance.

    ``sink_closest=False`` selects the source-side min cut instead of the
    reverse-labeling cut; it exists only for the lifetime ablation
    benchmark and forfeits lifetime optimality (never computational
    optimality) — the lospre DP computes the sink-closest cut by
    construction, so the ablation is min-cut-only.  ``rounds`` bounds the
    iterative worklist exactly as in
    :func:`repro.core.ssapre.driver.run_ssapre`: 1 is the classic
    one-shot driver, more rounds chase second-order redundancy through
    the occurrence index.
    """
    if has_critical_edges(func):
        raise ValueError(
            "MC-SSAPRE requires critical edges to be split first "
            "(use repro.ir.transforms.split_critical_edges)"
        )
    if not sink_closest and solver != "mincut":
        raise ValueError(
            "sink_closest=False (the lifetime ablation) requires "
            "solver='mincut'; lospre computes the sink-closest cut "
            "by construction"
        )
    from repro.passes.cache import AnalysisCache

    cache = AnalysisCache.ensure(func, cache)
    result = MCPREResult(algorithm="MC-SSAPRE")

    fallback = MinCutSolver(sink_closest=sink_closest)
    if isinstance(solver, SpeculationSolver):
        active: SpeculationSolver = solver
        result.solver_requested = solver.name
        result.solver_used = solver.name
    else:
        result.solver_requested = solver
        resolved, shape = select_solver(func, solver)
        result.shape_width = shape.width if shape is not None else None
        result.solver_used = resolved
        if resolved == "mincut":
            active = fallback
        else:
            from repro.core.solvers.lospre import LospreSolver

            active = LospreSolver()

    def process_round(
        fn: Function, work: list[ExprClass]
    ) -> list[CodeMotionReport]:
        # Steps 1 and 2 for every class of the round in one shared
        # rename walk, and one shared bit-vector solve for the
        # trapping-class safe fallback (see the comment in run_ssapre
        # for why later CodeMotion cannot invalidate these).
        frgs = build_frgs(fn, work, cache=cache)
        dataflow = None

        reports = []
        for expr in work:
            frg = frgs[expr.key]
            if not frg.real_occs:
                continue
            if key_may_trap(expr.key, fn.arrays):
                # Unspeculatable: fall back to the safe placement for
                # this class (SSAPRE steps 3-4, via the shared step
                # runner), still deleting full redundancies.  Loads with
                # a provably in-bounds constant index cannot fault, so
                # they skip this branch and are speculated like any
                # non-trapping expression.
                if dataflow is None:
                    from repro.analysis.dataflow import solve_pre_dataflow

                    dataflow = solve_pre_dataflow(
                        fn, [e.key for e in work]
                    )
                run_safe_steps(frg, dataflow)
                result.trapping_fallbacks += 1
            else:
                solve_step3(frg)  # step 3
                reduced = build_reduced_graph(frg)  # step 4
                decision: SolverDecision | None = None
                if not reduced.is_empty():
                    decision = active.solve(reduced, profile)  # steps 5-7
                    if decision is None:
                        # Width overflow: this class goes to the cut.
                        result.lospre_refusals += 1
                        decision = fallback.solve(reduced, profile)
                if decision is not None:
                    result.efg_stats.append(
                        EFGStats(
                            expr=str(expr),
                            nodes=decision.nodes,
                            edges=decision.edges,
                            cut_value=decision.cut_value,
                            insertions=len(decision.insert_operands),
                            solver=decision.solver,
                            width=decision.width,
                        )
                    )
                compute_will_be_avail_from_cut(frg)  # step 8
            plan = finalize(frg)  # step 9
            report = apply_code_motion(fn, plan)  # step 10
            reports.append(report)
            if validate and report.changed:
                verify_ssa(fn)
        return reports

    run_rounds(
        func, result, process_round,
        classes=classes, rounds=rounds, validate=validate,
    )
    return result
