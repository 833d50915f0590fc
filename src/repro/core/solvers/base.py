"""The speculation-solver strategy layer.

MC-SSAPRE's steps 1–6 turn one expression class into a *reduced SSA
graph* (:class:`~repro.core.mcssapre.reduction.ReducedGraph`): the
insertion candidates (Φ operands), the strictly-partially-redundant real
occurrences, and the def-use edges between them, each weighted with a
node frequency from the execution profile.  Step 7 — *where do the
insertions go* — is a pure optimisation problem over that structure, and
this module makes it pluggable:

* a :class:`SpeculationSolver` consumes a reduced graph plus node
  frequencies and produces a :class:`SolverDecision` — which Φ operands
  receive an insertion and which occurrences compute in place — exactly
  the flags steps 8–10 (WillBeAvail, Finalize, CodeMotion) consume;
* :class:`~repro.core.solvers.mincut.MinCutSolver` is the paper's
  flow-network reduction (the machinery in :mod:`repro.flownet` is its
  private detail);
* :class:`~repro.core.solvers.lospre.LospreSolver` solves the same
  problem by dynamic programming over a width-bounded tree decomposition
  — linear time on the low-treewidth graphs structured programs produce
  — and *refuses* (returns ``None``) when the width bound is exceeded;
* :func:`~repro.core.solvers.shape.select_solver` is the ``auto``
  policy: classify the CFG shape, try lospre where it applies, fall back
  to the min cut everywhere else.

Every solver must produce the **same** placement: the lifetime-optimal
minimum cut (the unique one closest to the sink, Theorem 9).  The
``repro.check`` optimality oracle enforces this exactly on every fuzz
seed, and the solver-scaling section of ``BENCH.json`` pins it alongside
the compile-time win.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.mcssapre.reduction import ReducedGraph
    from repro.core.ssapre.frg import PhiOperand, RealOcc
    from repro.profiles.profile import ExecutionProfile

#: The solver knob's accepted spellings, everywhere it is plumbed
#: (PipelineConfig, pass stages, the check CLI).
SOLVER_NAMES = ("mincut", "lospre", "auto")

#: The knob's default: the paper's flow-network reduction.
DEFAULT_SOLVER = "mincut"


@dataclass
class SolverDecision:
    """An interpreted placement decision for one expression class.

    ``insert_operands`` have had their ``insert`` flag set (and every
    other candidate operand's flag cleared); ``in_place_occs`` are the
    SPR occurrences the solver chose to leave computing in place.
    ``cut_value`` is the predicted dynamic evaluation count chargeable
    to the placement — identical across solvers by the exactness
    contract.
    """

    solver: str
    cut_value: int
    insert_operands: "list[PhiOperand]" = field(default_factory=list)
    in_place_occs: "list[RealOcc]" = field(default_factory=list)
    nodes: int = 0
    edges: int = 0
    #: Tree-decomposition width achieved (lospre only; None for min cut).
    width: int | None = None

    @property
    def predicted_dynamic_count(self) -> int:
        return self.cut_value


class SpeculationSolver(ABC):
    """Strategy interface for MC-SSAPRE's placement decision (step 7).

    A solver is stateless and reusable across classes, rounds and
    functions.  ``solve`` receives a *non-empty* reduced graph (at least
    one SPR occurrence) and the training profile (node frequencies
    only), and either returns a :class:`SolverDecision` — having set the
    ``insert`` flag on exactly the chosen operands — or ``None`` to
    refuse the instance (only :class:`LospreSolver` does, when the
    width bound is exceeded; the driver then falls back to the min cut).
    """

    #: Registry name; also what PassReports and BENCH.json record.
    name: str

    @abstractmethod
    def solve(
        self, reduced: "ReducedGraph", profile: "ExecutionProfile"
    ) -> SolverDecision | None:
        """Decide insertions for one reduced graph, in place."""


def resolve_solver(solver: "str | SpeculationSolver") -> "SpeculationSolver":
    """A :class:`SpeculationSolver` instance from a name or instance.

    ``"auto"`` is a *policy*, not a solver: it must be resolved against a
    concrete function first (:func:`repro.core.solvers.shape.select_solver`),
    so asking for it here is an error.
    """
    if isinstance(solver, SpeculationSolver):
        return solver
    if solver == "mincut":
        from repro.core.solvers.mincut import MinCutSolver

        return MinCutSolver()
    if solver == "lospre":
        from repro.core.solvers.lospre import LospreSolver

        return LospreSolver()
    if solver == "auto":
        raise ValueError(
            "'auto' is a selection policy; resolve it per function with "
            "repro.core.solvers.shape.select_solver"
        )
    raise ValueError(
        f"unknown solver {solver!r}; expected one of {SOLVER_NAMES}"
    )
