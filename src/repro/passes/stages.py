"""Concrete pipeline stages wrapping the repository's transforms.

Each stage is a thin :class:`~repro.passes.base.Pass` adapter: the
algorithms stay where they are (``repro.ssa``, ``repro.core``,
``repro.baselines``, ``repro.opt``), the stage contributes the pass
contract — a name, a ``preserves()`` declaration, and cache plumbing.

Preservation notes:

* SSA construction/destruction, the PRE code motion steps, copy
  propagation, DCE, GVN and the three CFG baselines rewrite instructions
  but never blocks or edges, so they preserve ``"cfg"`` (and with it all
  CFG-derived analyses);
* SCCP may fold branches and delete unreachable blocks, so it preserves
  nothing.
"""

from __future__ import annotations

from repro.ir.function import Function
from repro.passes.base import PRESERVE_ALL, PRESERVE_CFG, Pass, PassError
from repro.passes.manager import PassContext

_CFG_ONLY = frozenset({PRESERVE_CFG})


def _require_profile(ctx: PassContext, name: str):
    if ctx.profile is None:
        raise PassError(f"pass {name!r} requires an execution profile")
    return ctx.profile


class ConstructSSAPass(Pass):
    name = "construct-ssa"

    def preserves(self) -> frozenset[str]:
        return _CFG_ONLY

    def run(self, func: Function, ctx: PassContext) -> None:
        from repro.ssa.construct import construct_ssa

        construct_ssa(func, cache=ctx.cache)
        ctx.in_ssa = True


class DestructSSAPass(Pass):
    name = "destruct-ssa"

    def preserves(self) -> frozenset[str]:
        return _CFG_ONLY

    def run(self, func: Function, ctx: PassContext) -> None:
        from repro.ssa.destruct import destruct_ssa

        destruct_ssa(func, cache=ctx.cache)
        ctx.in_ssa = False


class SCCPPass(Pass):
    name = "sccp"

    def run(self, func: Function, ctx: PassContext):
        from repro.opt.sccp import sparse_conditional_constant_propagation

        return sparse_conditional_constant_propagation(func, cache=ctx.cache)


class CopyPropagationPass(Pass):
    name = "copyprop"

    def preserves(self) -> frozenset[str]:
        return _CFG_ONLY

    def mutated(self, payload: object | None) -> bool:
        return bool(payload)

    def run(self, func: Function, ctx: PassContext) -> int:
        from repro.opt.copyprop import propagate_copies

        return propagate_copies(func)


class DCEPass(Pass):
    name = "dce"

    def preserves(self) -> frozenset[str]:
        return _CFG_ONLY

    def mutated(self, payload: object | None) -> bool:
        return bool(payload)

    def run(self, func: Function, ctx: PassContext) -> int:
        from repro.opt.dce import eliminate_dead_code

        return eliminate_dead_code(func)


class GVNPass(Pass):
    name = "gvn"

    def preserves(self) -> frozenset[str]:
        return _CFG_ONLY

    def run(self, func: Function, ctx: PassContext):
        from repro.opt.gvn import global_value_numbering

        return global_value_numbering(func, cache=ctx.cache)


class SSAPREPass(Pass):
    """Safe SSAPRE (compile A) or loop-speculative SSAPREsp (compile B).

    ``rounds > 1`` runs the rank-ordered iterative worklist (the stage
    is then named with an ``-iter`` suffix so reports distinguish it).
    """

    def __init__(
        self,
        speculate_loops: bool = False,
        rounds: int = 1,
    ):
        self.speculate_loops = speculate_loops
        self.rounds = rounds
        self.name = "ssapre-sp" if speculate_loops else "ssapre"
        if rounds > 1:
            self.name += "-iter"

    def preserves(self) -> frozenset[str]:
        return _CFG_ONLY

    def mutated(self, payload: object | None) -> bool:
        return payload is None or payload.classes_changed > 0

    def run(self, func: Function, ctx: PassContext):
        from repro.core.ssapre.driver import run_ssapre

        return run_ssapre(
            func,
            speculate_loops=self.speculate_loops,
            validate=ctx.validate,
            cache=ctx.cache,
            rounds=self.rounds,
        )


class MCSSAPREPass(Pass):
    """MC-SSAPRE (compile C) — needs node frequencies from the profile.

    ``rounds > 1`` runs the rank-ordered iterative worklist (the stage
    is then named ``mc-ssapre-iter`` so reports distinguish it).
    ``solver`` picks the speculation back end ("mincut", "lospre",
    "auto" — :mod:`repro.core.solvers`); which one actually ran is
    recorded on the driver result and surfaced in the pass report.
    """

    name = "mc-ssapre"

    def __init__(
        self,
        sink_closest: bool = True,
        rounds: int = 1,
        solver: str = "mincut",
    ):
        self.sink_closest = sink_closest
        self.rounds = rounds
        self.solver = solver
        if rounds > 1:
            self.name = "mc-ssapre-iter"

    def preserves(self) -> frozenset[str]:
        return _CFG_ONLY

    def mutated(self, payload: object | None) -> bool:
        return payload is None or payload.classes_changed > 0

    def run(self, func: Function, ctx: PassContext):
        from repro.core.mcssapre.driver import run_mc_ssapre

        profile = _require_profile(ctx, self.name)
        return run_mc_ssapre(
            func,
            profile.nodes_only(),
            validate=ctx.validate,
            sink_closest=self.sink_closest,
            cache=ctx.cache,
            rounds=self.rounds,
            solver=self.solver,
        )


class MCPREBaselinePass(Pass):
    name = "mc-pre"

    def preserves(self) -> frozenset[str]:
        return _CFG_ONLY

    def run(self, func: Function, ctx: PassContext):
        from repro.baselines.mcpre import run_mc_pre

        return run_mc_pre(
            func, _require_profile(ctx, self.name), validate=ctx.validate,
            cache=ctx.cache,
        )


class ISPREBaselinePass(Pass):
    name = "ispre"

    def __init__(self, theta: float = 0.5):
        self.theta = theta

    def preserves(self) -> frozenset[str]:
        return _CFG_ONLY

    def run(self, func: Function, ctx: PassContext):
        from repro.baselines.ispre import run_ispre

        return run_ispre(
            func, _require_profile(ctx, self.name), theta=self.theta,
            validate=ctx.validate, cache=ctx.cache,
        )


class LCMBaselinePass(Pass):
    name = "lcm"

    def preserves(self) -> frozenset[str]:
        return _CFG_ONLY

    def run(self, func: Function, ctx: PassContext):
        from repro.baselines.lcm import run_lcm

        return run_lcm(func, validate=ctx.validate, cache=ctx.cache)


class VerifyPass(Pass):
    """Explicit verification stage (IR + SSA when applicable)."""

    name = "verify"

    def preserves(self) -> frozenset[str]:
        return PRESERVE_ALL

    def run(self, func: Function, ctx: PassContext) -> None:
        from repro.ir.verifier import verify_function

        verify_function(func)
        if ctx.in_ssa:
            from repro.ssa.ssa_verifier import verify_ssa

            verify_ssa(func)
