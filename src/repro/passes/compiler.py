"""The single compilation entry point: :func:`compile`.

One call takes a *prepared* function (see :func:`repro.pipeline.prepare`)
plus a :class:`PipelineConfig` — the one description of what to compile
— clones the input with the fast :meth:`Function.clone` (never mutating
the caller's copy), runs the config's pipeline spec through a
:class:`PassManager`, and returns the transformed function together with
the PRE driver's result object and a structured :class:`PassReport`.

A *pipeline spec* is an ordered list of :class:`~repro.passes.base.Pass`
instances.  The optional SCCP / cleanup neighbours of PRE are ordinary
stages in the spec — there is no out-of-band post-processing.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass

from repro.core.solvers.base import SOLVER_NAMES
from repro.ir.function import Function
from repro.passes.base import Pass
from repro.passes.manager import PassManager, PassReport
from repro.passes.stages import (
    ConstructSSAPass,
    CopyPropagationPass,
    DCEPass,
    DestructSSAPass,
    ISPREBaselinePass,
    LCMBaselinePass,
    MCPREBaselinePass,
    MCSSAPREPass,
    SCCPPass,
    SSAPREPass,
)
from repro.profiles.profile import ExecutionProfile

#: All PRE variants the compiler can drive (paper Section 5.1 protocol).
VARIANTS = ("none", "ssapre", "ssapre-sp", "mc-ssapre", "mc-pre", "ispre", "lcm")

#: The one-shot CFG baselines: their whole pipeline is one stage on the
#: non-SSA form.
_CFG_BASELINES = {
    "mc-pre": MCPREBaselinePass,
    "ispre": ISPREBaselinePass,
    "lcm": LCMBaselinePass,
}


@dataclass(frozen=True)
class PipelineConfig:
    """The one description of a compile.

    Frozen and hashable: two equal configs always build the same pipeline
    spec, so ``(function structure, config)`` identifies a compiled
    artifact — the contract :mod:`repro.serve.keys` fingerprints
    with :meth:`canonical`.  ``validate`` is deliberately *not* part of
    the config: it toggles internal checking, never the produced code.

    SSA-based variants bracket their PRE stage with SSA construction and
    destruction; ``fold_constants`` slots SCCP before PRE and ``cleanup``
    slots copy propagation + DCE after it (both SSA-variant only).
    ``rounds > 1`` selects the iterative worklist form of the SSA-based
    PRE stage; the CFG baselines are one-shot and reject it, as they
    reject ``fold_constants`` and ``cleanup``.
    """

    variant: str = "mc-ssapre"
    fold_constants: bool = False
    cleanup: bool = False
    rounds: int = 1
    #: Speculation solver for the mc-ssapre variant: "mincut", "lospre"
    #: or "auto" (classify the CFG per function; see repro.core.solvers).
    solver: str = "mincut"

    #: Fields deliberately *excluded* from :meth:`canonical` — knobs that
    #: can never change the produced code.  Every other field is keyed by
    #: construction; a field that is neither excluded here nor of a
    #: canonical-safe scalar type makes :meth:`canonical` raise, so a new
    #: knob can never silently alias serve cache keys.
    _CANONICAL_EXCLUDE = frozenset()

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(
                f"unknown variant {self.variant!r}; expected one of {VARIANTS}"
            )
        if self.rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {self.rounds}")
        # The baselines' one stage ignores these knobs: accepting them
        # would file the same code under a second cache key.
        if self.variant in _CFG_BASELINES and (
            self.rounds > 1 or self.fold_constants or self.cleanup
        ):
            raise ValueError(
                f"variant {self.variant!r} is a one-shot CFG baseline; "
                "rounds > 1, fold_constants and cleanup apply only to the "
                "SSA-based variants"
            )
        if self.solver not in SOLVER_NAMES:
            raise ValueError(
                f"unknown solver {self.solver!r}; expected one of {SOLVER_NAMES}"
            )
        if self.solver != "mincut" and self.variant != "mc-ssapre":
            raise ValueError(
                f"solver={self.solver!r} applies only to the mc-ssapre "
                f"variant, not {self.variant!r}"
            )

    @property
    def needs_profile(self) -> bool:
        """True when this config's variant requires an execution profile
        (the one list of profiled variants)."""
        return self.variant in ("mc-ssapre", "mc-pre", "ispre")

    def stages(self) -> list[Pass]:
        """The pipeline spec this config describes (fresh pass instances)."""
        if self.variant == "none":
            return []
        if self.variant in _CFG_BASELINES:
            return [_CFG_BASELINES[self.variant]()]
        spec: list[Pass] = [ConstructSSAPass()]
        if self.fold_constants:
            spec.append(SCCPPass())
        if self.variant == "mc-ssapre":
            spec.append(MCSSAPREPass(rounds=self.rounds, solver=self.solver))
        else:
            spec.append(SSAPREPass(
                speculate_loops=(self.variant == "ssapre-sp"),
                rounds=self.rounds,
            ))
        if self.cleanup:
            spec += [CopyPropagationPass(), DCEPass()]
        spec.append(DestructSSAPass())
        return spec

    def canonical(self) -> str:
        """A stable one-line rendering, suitable for hashing.

        Derived from the dataclass fields *by construction*: every field
        participates, in declaration order, unless it is named in
        :data:`_CANONICAL_EXCLUDE`; booleans render as 0/1.  A field
        whose value is not a canonical-safe scalar (bool/int/str) raises
        — classify it explicitly (make it renderable or exclude it)
        before it can alias cache keys.  Reordering or renaming fields
        re-keys every cached artifact; bump
        :data:`repro.serve.keys.KEY_SCHEMA` when that is the intent.
        """
        parts = []
        for spec in dataclasses.fields(self):
            if spec.name in self._CANONICAL_EXCLUDE:
                continue
            value = getattr(self, spec.name)
            if isinstance(value, bool):
                rendered = str(int(value))
            elif isinstance(value, (int, str)):
                rendered = str(value)
            else:
                raise TypeError(
                    f"PipelineConfig field {spec.name!r} has no canonical "
                    f"rendering for {type(value).__name__} values; add it "
                    "to _CANONICAL_EXCLUDE or make it a bool/int/str"
                )
            parts.append(f"{spec.name}={rendered}")
        return ";".join(parts)


@dataclass
class CompiledFunction:
    """A compiled variant plus the optimisation result and pass report."""

    variant: str
    func: Function
    pre_result: object | None = None
    report: PassReport | None = None
    #: The pipeline's analysis cache, still bound to :attr:`func`.  Kept
    #: so downstream consumers (the check driver, ``repro.perf``) can run
    #: the function through the compiled execution back end without
    #: re-lowering it on every input (see
    #: :data:`repro.passes.analyses.COMPILED_ANALYSIS`).
    cache: object | None = None


def compile(  # noqa: A001 - deliberate: the entry point is *the* compile
    func: Function,
    config: PipelineConfig | str,
    profile: ExecutionProfile | None = None,
    *,
    pipeline_spec: list[Pass] | None = None,
    validate: bool = False,
    verify_each: bool = False,
) -> CompiledFunction:
    """Compile one configuration of an already-prepared function.

    *config* is a :class:`PipelineConfig`; a bare variant name means
    ``PipelineConfig(name)``.  The input is never mutated.
    ``pipeline_spec`` (a list of :class:`Pass` instances) overrides the
    config's stage list; ``validate`` runs the drivers' internal
    verifiers; ``verify_each`` additionally re-verifies the whole
    function between passes, naming the pass that broke an invariant.

    The profiled variants (``mc-ssapre``, ``mc-pre``, ``ispre``) raise
    :class:`ValueError` when *profile* is missing.
    """
    if isinstance(config, str):
        config = PipelineConfig(config)
    if profile is None and config.needs_profile:
        raise ValueError(f"{config.variant} requires an execution profile")
    passes = config.stages() if pipeline_spec is None else list(pipeline_spec)

    report = PassReport(function=func.name, variant=config.variant)
    t0 = time.perf_counter()
    work = func.clone()
    report.clone_time = time.perf_counter() - t0
    report.total_time += report.clone_time

    from repro.passes.cache import AnalysisCache

    cache = AnalysisCache(work)
    manager = PassManager(verify_each=verify_each)
    manager.run(
        work,
        passes,
        profile=profile,
        validate=validate,
        variant=config.variant,
        cache=cache,
        report=report,
    )
    if validate:
        from repro.ir.verifier import verify_function

        verify_function(work)

    pre_result = None
    for stage, execution in zip(passes, report.executions):
        if stage.is_pre:
            pre_result = execution.payload
    return CompiledFunction(
        variant=config.variant,
        func=work,
        pre_result=pre_result,
        report=report,
        cache=cache,
    )
