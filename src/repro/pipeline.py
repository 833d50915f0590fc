"""End-to-end compilation pipeline.

Mirrors the paper's experimental protocol (Section 5.1):

* the source function is normalised once — unreachable blocks removed,
  while loops restructured to do-while form (Figure 1), critical edges
  split — so all compiles share one CFG shape and profiles transfer;
* a *training run* on the prepared function collects the FDO profile;
* each variant (A: SSAPRE, B: SSAPREsp, C: MC-SSAPRE, plus the MC-PRE and
  ISPRE baselines and an unoptimised control) compiles its own copy;
* the *reference run* measures dynamic cost and per-expression counts.

The pipeline never mutates its input function.  The heavy lifting lives
in :mod:`repro.passes` — :func:`compile_variant` is a compatibility
wrapper over :func:`repro.passes.compiler.compile`, which additionally
returns a structured :class:`~repro.passes.manager.PassReport` on every
:class:`CompiledFunction`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from repro.core.solvers.base import SOLVER_NAMES
from repro.ir.cfg import remove_unreachable_blocks
from repro.ir.function import Function
from repro.ir.transforms import restructure_while_loops, split_critical_edges
from repro.ir.verifier import verify_function
from repro.passes.compiler import (
    VARIANTS,
    CompiledFunction,
    build_pipeline,
)
from repro.passes.compiler import (
    compile as compile_func,
)
from repro.profiles.interp import RunResult, run_function
from repro.profiles.profile import ExecutionProfile

#: The paper's three compiles (Table 1 / Table 2 columns).
PAPER_VARIANTS = ("ssapre", "ssapre-sp", "mc-ssapre")

#: Execution back ends for the train/ref runs.  "compiled" lowers each
#: function once (repro.profiles.compiled) and produces RunResults
#: bit-identical to the tree-walking "reference" interpreter, which is
#: kept as the differential oracle.
ENGINES = ("compiled", "reference")

__all__ = [
    "ENGINES",
    "VARIANTS",
    "PAPER_VARIANTS",
    "CompiledFunction",
    "Measurement",
    "Experiment",
    "PipelineConfig",
    "prepare",
    "compile_variant",
    "run_experiment",
]


@dataclass(frozen=True)
class PipelineConfig:
    """A cache-keyable description of one compile.

    Frozen and hashable: two equal configs always build the same pipeline
    spec, so ``(function structure, config, engine)`` identifies a
    compiled artifact — the contract :mod:`repro.serve.keys` fingerprints
    with :meth:`canonical`.  ``validate`` is deliberately *not* part of
    the config: it toggles internal checking, never the produced code.
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
        if self.solver not in SOLVER_NAMES:
            raise ValueError(
                f"unknown solver {self.solver!r}; expected one of {SOLVER_NAMES}"
            )
        if self.solver != "mincut" and self.variant != "mc-ssapre":
            raise ValueError(
                f"solver={self.solver!r} applies only to the mc-ssapre "
                f"variant, not {self.variant!r}"
            )

    def stages(self):
        """The pipeline spec this config describes (a list of passes)."""
        return build_pipeline(
            self.variant,
            fold_constants=self.fold_constants,
            cleanup=self.cleanup,
            rounds=self.rounds,
            solver=self.solver,
        )

    def resolved(self, func: Function) -> "PipelineConfig":
        """This config with ``solver="auto"`` resolved for *func*.

        The shape classifier is deterministic from function structure, so
        the resolution is stable — the serving layer keys artifacts by
        the resolved config, making ``auto`` share cache entries with
        whichever forced solver it picks.
        """
        if self.solver != "auto":
            return self
        from repro.core.solvers.shape import select_solver

        name, _ = select_solver(func, "auto")
        return dataclasses.replace(self, solver=name)

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

    @property
    def needs_profile(self) -> bool:
        """True when this config's variant requires an execution profile."""
        return self.variant in ("mc-ssapre", "mc-pre", "ispre")


def make_runner(engine: str):
    """``(func, args, max_steps, cache=None) -> RunResult`` for *engine*.

    The ``cache`` argument is an optional
    :class:`~repro.passes.cache.AnalysisCache` bound to ``func``; the
    compiled engine memoises its lowering there, the reference engine
    ignores it.
    """
    if engine == "reference":
        def run(func, args, max_steps, cache=None):
            return run_function(func, args, max_steps=max_steps)

        return run
    if engine == "compiled":
        from repro.profiles.compiled import run_compiled

        def run(func, args, max_steps, cache=None):
            return run_compiled(func, args, max_steps=max_steps, cache=cache)

        return run
    raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")


def prepare(func: Function, restructure: bool = True) -> Function:
    """Normalise a non-SSA source function for optimisation and profiling."""
    prepared = func.clone()
    remove_unreachable_blocks(prepared)
    if restructure:
        restructure_while_loops(prepared)
    split_critical_edges(prepared)
    verify_function(prepared)
    return prepared


def compile_variant(
    prepared: Function,
    variant: str | None = None,
    profile: ExecutionProfile | None = None,
    validate: bool = False,
    fold_constants: bool = False,
    cleanup: bool = False,
    rounds: int = 1,
    solver: str = "mincut",
    config: PipelineConfig | None = None,
) -> CompiledFunction:
    """Compile one PRE variant of an already-prepared function.

    SSA-based variants construct SSA, optimise, then translate out of SSA
    so all variants are measured in the same (non-SSA) execution model.
    CFG-based baselines run directly on the non-SSA form.

    ``fold_constants`` runs SCCP before PRE; ``cleanup`` runs copy
    propagation + DCE after PRE (both SSA-variant only) — the neighbours
    PRE sits between in a production pipeline.  ``rounds > 1`` selects
    the iterative rank-ordered worklist form of the SSA-based PRE stage;
    ``solver`` picks the mc-ssapre speculation back end (mincut, lospre
    or auto — see :mod:`repro.core.solvers`).
    A :class:`PipelineConfig` may be passed instead of the individual
    flags (the serving layer's cache-keyable form); mixing both is an
    error.  This is a thin wrapper over
    :func:`repro.passes.compiler.compile` with the flags translated into
    pipeline stages.
    """
    if config is not None:
        if (
            variant is not None
            or fold_constants
            or cleanup
            or rounds != 1
            or solver != "mincut"
        ):
            raise ValueError(
                "pass either a PipelineConfig or individual flags, not both"
            )
    else:
        if variant is None:
            raise ValueError("compile_variant needs a variant or a config")
        config = PipelineConfig(
            variant=variant,
            fold_constants=fold_constants,
            cleanup=cleanup,
            rounds=rounds,
            solver=solver,
        )
    return compile_func(
        prepared,
        config.variant,
        profile,
        pipeline_spec=config.stages(),
        validate=validate,
    )


@dataclass
class Measurement:
    """Reference-run measurement of one compiled variant."""

    variant: str
    dynamic_cost: int
    expr_counts: dict[tuple, int]
    observable: tuple
    compiled: CompiledFunction


@dataclass
class Experiment:
    """A full FDO experiment on one function."""

    prepared: Function
    train_result: RunResult
    measurements: dict[str, Measurement] = field(default_factory=dict)

    def cost(self, variant: str) -> int:
        return self.measurements[variant].dynamic_cost

    def speedup(self, slower: str, faster: str) -> float:
        """Fractional improvement of *faster* over *slower* ((s-f)/s)."""
        s = self.cost(slower)
        f = self.cost(faster)
        return (s - f) / s if s else 0.0


def run_experiment(
    source: Function,
    train_args: list[int],
    ref_args: list[int],
    variants: tuple[str, ...] = PAPER_VARIANTS,
    restructure: bool = True,
    validate: bool = False,
    max_steps: int = 5_000_000,
    engine: str = "compiled",
    rounds: int = 1,
) -> Experiment:
    """Prepare, profile with the train input, compile variants, measure.

    Raises if any variant changes the program's observable behaviour —
    the pipeline doubles as the semantic-equivalence harness.  ``engine``
    selects the execution back end (both produce bit-identical
    :class:`RunResult` data; "reference" is the differential oracle).
    ``rounds`` is forwarded to the SSA-based variants (iterative
    worklist); CFG baselines ignore it and stay one-shot.
    """
    from repro.passes.cache import AnalysisCache

    execute = make_runner(engine)
    prepared = prepare(source, restructure=restructure)
    prepared_cache = AnalysisCache(prepared)
    train = execute(prepared, train_args, max_steps, cache=prepared_cache)
    experiment = Experiment(prepared=prepared, train_result=train)

    reference = execute(prepared, ref_args, max_steps, cache=prepared_cache)
    expected = reference.observable()

    for variant in variants:
        variant_rounds = rounds if variant in PAPER_VARIANTS else 1
        compiled = compile_variant(
            prepared, variant, profile=train.profile, validate=validate,
            rounds=variant_rounds,
        )
        measured = execute(
            compiled.func, ref_args, max_steps, cache=compiled.cache
        )
        if measured.observable() != expected:
            raise AssertionError(
                f"variant {variant!r} changed observable behaviour of "
                f"{source.name!r}"
            )
        experiment.measurements[variant] = Measurement(
            variant=variant,
            dynamic_cost=measured.dynamic_cost,
            expr_counts=measured.expr_counts,
            observable=measured.observable(),
            compiled=compiled,
        )
    if "none" not in experiment.measurements:
        experiment.measurements.setdefault(
            "none",
            Measurement(
                variant="none",
                dynamic_cost=reference.dynamic_cost,
                expr_counts=reference.expr_counts,
                observable=expected,
                compiled=CompiledFunction(variant="none", func=prepared),
            ),
        )
    return experiment
