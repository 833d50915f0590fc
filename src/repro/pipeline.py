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
in :mod:`repro.passes`: :func:`repro.passes.compiler.compile` takes a
:class:`PipelineConfig` (re-exported here) and returns a structured
:class:`~repro.passes.manager.PassReport` on every
:class:`CompiledFunction`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ir.cfg import remove_unreachable_blocks
from repro.ir.function import Function
from repro.ir.transforms import restructure_while_loops, split_critical_edges
from repro.ir.verifier import verify_function
from repro.passes.compiler import (
    VARIANTS,
    CompiledFunction,
    PipelineConfig,
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
    config: PipelineConfig | str,
    profile: ExecutionProfile | None = None,
    validate: bool = False,
) -> CompiledFunction:
    """Compile one configuration of an already-prepared function.

    The same call as :func:`repro.passes.compiler.compile`, made through
    this module's ``compile_func`` global.  It stays because the frozen
    ``perfbench/workloads.py`` calls it by name and ``perfbench/spans.py``
    times compiles by patching ``repro.pipeline.compile_func``.
    """
    return compile_func(prepared, config, profile, validate=validate)


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
    ``rounds`` is forwarded to the paper's three SSA-based variants
    (iterative worklist); every other variant stays one-shot.
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
        config = PipelineConfig(
            variant, rounds=rounds if variant in PAPER_VARIANTS else 1
        )
        compiled = compile_variant(
            prepared, config, train.profile, validate=validate
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
