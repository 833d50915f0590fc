"""The seeded fuzz loop: generate → compile every variant → run oracles.

One *case* is one generated program (:mod:`repro.bench.generator`) in
one of four shapes — ``cint`` (branch-heavy, shallow loops, integer
ops), ``cfp`` (loop-heavy, FP-flavoured, invariant-dense),
``composite`` (nested expression chains with per-site intermediates,
the second-order-redundancy family the iterative worklist exists for)
or ``mem`` (array loads/stores with aliasing stores and may-trap load
classes, the family that exercises store kills and load speculation) —
with trapping operators enabled, so speculation safety is genuinely at
stake.  The driver compiles all variants through the single
:func:`repro.passes.compiler.compile` entry point with verification on,
classifies anything that goes wrong before the oracles even run
(``crash`` vs ``verifier-reject``, attributed to the failing pass via the
:class:`~repro.passes.manager.PassReport`), executes every compiled
function on shared inputs, and hands the assembled
:class:`~repro.check.oracles.CheckCase` to the requested oracles.

Everything is deterministic in ``(seed, shape)``: the program, the
argument vectors, and therefore every compile and run.  That is what lets
a stored failure replay years later from two integers and a string.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from functools import partial

from repro.bench.generator import (
    ProgramSpec,
    generate_program,
    perturbed_args,
    random_args,
)
from repro.core.worklist import DEFAULT_ITERATIVE_ROUNDS
from repro.ir.function import Function
from repro.ir.verifier import VerificationError, verify_function
from repro.parallel import ParallelMapError, parallel_map
from repro.passes.cache import AnalysisCache
from repro.passes.compiler import VARIANTS, PipelineConfig, compile as compile_func
from repro.pipeline import prepare
from repro.profiles.interp import InterpreterError, run_function
from repro.check.oracles import (
    DEFAULT_MAX_STEPS,
    ORACLE_NAMES,
    ORACLES,
    CheckCase,
    OracleFailure,
    OracleReport,
    VariantFn,
)

#: The program families the harness fuzzes: the paper's two (Tables 1
#: and 2), the composite-chain family for second-order redundancy, and
#: the memory family (array loads/stores under the conservative alias
#: model, with aliasing stores and may-trap load classes).
SHAPES = ("cint", "cfp", "composite", "mem")

#: Round budget of the always-fuzzed iterative twin variants, and the
#: names they are recorded under in ``CheckCase.compiled``.  The twins
#: are policed by the equivalence and safety oracles on every case (the
#: per-key optimality oracles reference the one-shot drivers by name —
#: iterative operand rewriting legitimately re-keys expressions).
ITERATIVE_ROUNDS = DEFAULT_ITERATIVE_ROUNDS
ITERATIVE_VARIANTS = {"ssapre-iter": "ssapre", "mc-ssapre-iter": "mc-ssapre"}

#: Always-compiled differential twin: MC-SSAPRE under the linear-time
#: lospre solver (one-shot).  Named in
#: :data:`repro.check.oracles._OPTIMAL_PEERS`, so the optimality oracle
#: requires its per-expression dynamic counts to equal the min-cut
#: compile's *exactly* on every fuzz seed — the solver exactness
#: contract (refused classes fall back to the min cut inside the driver,
#: so the twin exists on every case).
SOLVER_TWIN = "mc-ssapre-lospre"

#: Inputs per case: index 0 trains the profile, the rest are ref-like.
DEFAULT_INPUTS = 3

#: Execution back end for the *variant* runs (one of
#: :data:`repro.pipeline.ENGINES`).  The control always runs on the
#: tree-walking reference interpreter (it is the semantics oracle), so
#: fuzzing with the default "compiled" engine differentially tests the
#: compiled back end on every case for free.
DEFAULT_ENGINE = "compiled"


def spec_for_shape(shape: str, seed: int) -> ProgramSpec:
    """The generator spec of one fuzz case.

    Unlike the benchmark suite specs (:mod:`repro.bench.workloads`),
    these keep programs small enough that hundreds of cases compile and
    run in seconds, and they turn the trapping knobs *up*: an explicit
    trapping density plus trapping hot expressions, so partially
    redundant ``div``/``mod`` — the expressions the safety guarantee is
    about — occur in nearly every program.
    """
    if shape == "cint":
        return ProgramSpec(
            name=f"cint{seed}",
            seed=seed,
            params=3,
            locals_count=6,
            region_length=5,
            max_depth=2,
            branch_weight=0.38,
            loop_weight=0.16,
            loop_mask_bits=4,
            loop_base=3,
            hot_exprs=5,
            hot_prob=0.45,
            trapping_density=0.08,
            trapping_hot_prob=0.25,
            fp_flavor=False,
            stable_fraction=0.5,
        )
    if shape == "cfp":
        return ProgramSpec(
            name=f"cfp{seed}",
            seed=seed,
            params=3,
            locals_count=6,
            region_length=4,
            max_depth=2,
            branch_weight=0.14,
            loop_weight=0.34,
            loop_mask_bits=5,
            loop_base=5,
            hot_exprs=6,
            hot_prob=0.5,
            trapping_density=0.05,
            trapping_hot_prob=0.20,
            fp_flavor=True,
            stable_fraction=0.65,
        )
    if shape == "composite":
        return ProgramSpec(
            name=f"composite{seed}",
            seed=seed,
            params=3,
            locals_count=6,
            region_length=5,
            max_depth=2,
            branch_weight=0.30,
            loop_weight=0.20,
            loop_mask_bits=4,
            loop_base=3,
            hot_exprs=4,
            hot_prob=0.30,
            trapping_density=0.06,
            trapping_hot_prob=0.20,
            composite_exprs=3,
            composite_depth=3,
            composite_prob=0.35,
            fp_flavor=False,
            stable_fraction=0.6,
        )
    if shape == "mem":
        return ProgramSpec(
            name=f"mem{seed}",
            seed=seed,
            params=3,
            locals_count=6,
            region_length=5,
            max_depth=2,
            branch_weight=0.30,
            loop_weight=0.22,
            loop_mask_bits=4,
            loop_base=3,
            hot_exprs=3,
            hot_prob=0.35,
            trapping_density=0.04,
            trapping_hot_prob=0.30,
            fp_flavor=False,
            stable_fraction=0.6,
            arrays=2,
            mem_prob=0.35,
            store_density=0.30,
            alias_density=0.5,
            hot_loads=3,
        )
    raise ValueError(f"unknown shape {shape!r}; expected one of {SHAPES}")


def case_inputs(spec: ProgramSpec, n_inputs: int = DEFAULT_INPUTS) -> list[list[int]]:
    """Deterministic argument vectors; index 0 is the training vector."""
    train = random_args(spec, seed=101)
    inputs = [train]
    for i in range(1, n_inputs):
        if i % 2:  # a correlated "ref" input (profile roughly transfers)
            inputs.append(perturbed_args(spec, train, seed=200 + i))
        else:  # an independent input (profile may mispredict)
            inputs.append(random_args(spec, seed=300 + i))
    return inputs


@dataclass
class CaseResult:
    """Everything one ``(seed, shape)`` case produced."""

    seed: int
    shape: str
    case: CheckCase | None  # None when the control itself failed
    compile_failures: list[OracleFailure] = field(default_factory=list)
    reports: list[OracleReport] = field(default_factory=list)
    skipped: str | None = None  # reason the case was not checkable

    @property
    def failures(self) -> list[OracleFailure]:
        out = list(self.compile_failures)
        for report in self.reports:
            out.extend(report.failures)
        return out

    @property
    def passed(self) -> bool:
        return not self.failures


def build_case(
    seed: int,
    shape: str,
    *,
    spec: ProgramSpec | None = None,
    source: Function | None = None,
    n_inputs: int = DEFAULT_INPUTS,
    max_steps: int = DEFAULT_MAX_STEPS,
    variants: tuple[str, ...] = VARIANTS,
    extra_variants: dict[str, VariantFn] | None = None,
    engine: str = DEFAULT_ENGINE,
    iterative: bool = True,
    solver: str = "mincut",
) -> CaseResult:
    """Generate, prepare, profile and compile one case.

    ``iterative=True`` (default) additionally compiles the iterative
    worklist twins of the SSA-based drivers
    (:data:`ITERATIVE_VARIANTS`), so every fuzz case differentially
    tests the multi-round engine against the reference interpreter and
    the safety oracle for free.

    ``solver`` forces the speculation solver of the *main* mc-ssapre
    compiles (one-shot and iterative).  Independent of it, whenever
    "mc-ssapre" is among the variants the case also compiles the
    :data:`SOLVER_TWIN` — mc-ssapre under ``solver="lospre"`` — which
    the optimality oracle exact-compares against the main compile.

    ``extra_variants`` maps a name to a callable ``(prepared_clone,
    profile) -> Function`` — the hook the reducer tests use to inject a
    deliberately broken transformation, and the way an out-of-tree pass
    can ride the whole harness.  The returned :class:`CaseResult` has
    ``case=None`` (with ``skipped`` set) when the *control* could not be
    built or run — that is a generator/interpreter budget problem, not an
    optimiser bug, so it is reported as a skip rather than a failure.

    ``engine`` selects the execution back end for the variant runs; the
    control always runs on the reference interpreter, so the default
    "compiled" engine is differentially tested on every case.
    """
    from repro.pipeline import make_runner

    execute = make_runner(engine)
    result = CaseResult(seed=seed, shape=shape, case=None)
    spec = spec or spec_for_shape(shape, seed)
    try:
        source = source if source is not None else generate_program(spec).func
        prepared = prepare(source)
        inputs = case_inputs(spec, n_inputs)
        control_runs = [
            run_function(prepared, args, max_steps=max_steps) for args in inputs
        ]
    except (InterpreterError, VerificationError, ValueError) as exc:
        result.skipped = f"control failed: {exc!r}"
        return result

    profile = control_runs[0].profile
    # Every fuzzed profile is flow-conservation checked automatically:
    # the interpreter's counting must satisfy Kirchhoff's law at every
    # non-entry block.
    assert prepared.entry is not None
    for i, run in enumerate(control_runs):
        violations = run.profile.check_flow_conservation(prepared.entry)
        if violations:
            result.compile_failures.append(
                OracleFailure(
                    "profile", "control", "flow-violation",
                    f"control run on input #{i} {inputs[i]} breaks flow "
                    f"conservation at {violations!r}",
                )
            )
    # Engine parity: the control also runs on the compiled engine, and
    # every field of the two RunResults must agree (a derived profile
    # can conserve flow and still be wrong).
    _check_engine_parity(
        result, "control", inputs, control_runs,
        partial(
            make_runner("compiled"), prepared, max_steps=max_steps,
            cache=AnalysisCache(prepared),
        ),
    )
    main_mc = PipelineConfig("mc-ssapre", solver=solver)
    configs = {
        variant: main_mc if variant == "mc-ssapre" else PipelineConfig(variant)
        for variant in variants
    }
    if iterative:
        configs.update(
            (name, dataclasses.replace(configs[base], rounds=ITERATIVE_ROUNDS))
            for name, base in ITERATIVE_VARIANTS.items()
            if base in variants
        )
    if "mc-ssapre" in variants:
        configs[SOLVER_TWIN] = PipelineConfig("mc-ssapre", solver="lospre")

    compiled: dict[str, Function] = {}
    caches: dict[str, object] = {}
    for name, config in configs.items():
        try:
            out = compile_func(prepared, config, profile, validate=True)
            verify_function(out.func)
            compiled[name] = out.func
            caches[name] = out.cache
        except VerificationError as exc:
            result.compile_failures.append(
                OracleFailure("compile", name, "verifier-reject", repr(exc))
            )
        except Exception as exc:  # noqa: BLE001 - any crash is a finding
            result.compile_failures.append(
                OracleFailure("compile", name, "crash", repr(exc))
            )
    for name, fn in (extra_variants or {}).items():
        try:
            out_func = fn(prepared.clone(), profile)
            verify_function(out_func)
            compiled[name] = out_func
            caches[name] = AnalysisCache(out_func)
        except VerificationError as exc:
            result.compile_failures.append(
                OracleFailure("compile", name, "verifier-reject", repr(exc))
            )
        except Exception as exc:  # noqa: BLE001
            result.compile_failures.append(
                OracleFailure("compile", name, "crash", repr(exc))
            )

    variant_runs: dict[str, list] = {}
    other_engine = make_runner(
        "reference" if engine == "compiled" else "compiled"
    )
    for name, func in compiled.items():
        runs: list = []
        outcomes: list = []
        cache = caches.get(name)
        for i, args in enumerate(inputs):
            try:
                runs.append(execute(func, args, max_steps, cache=cache))
            except Exception as exc:  # noqa: BLE001
                runs.append(None)
                result.compile_failures.append(
                    OracleFailure(
                        "compile", name, "crash",
                        f"run on input #{i} {args}: {exc!r}",
                    )
                )
                outcomes.append(exc)
            else:
                outcomes.append(runs[-1])
        variant_runs[name] = runs
        if name == "mc-ssapre":
            _check_engine_parity(
                result, name, inputs, outcomes,
                partial(other_engine, func, max_steps=max_steps, cache=cache),
            )
        assert func.entry is not None
        for i, run in enumerate(runs):
            if run is None or not run.profile.edge_freq:
                continue
            violations = run.profile.check_flow_conservation(func.entry)
            if violations:
                result.compile_failures.append(
                    OracleFailure(
                        "profile", name, "flow-violation",
                        f"run on input #{i} {inputs[i]} breaks flow "
                        f"conservation at {violations!r}",
                    )
                )

    result.case = CheckCase(
        seed=seed,
        shape=shape,
        spec=spec,
        source=source,
        prepared=prepared,
        inputs=inputs,
        profile=profile,
        control_runs=control_runs,
        compiled=compiled,
        variant_runs=variant_runs,
        max_steps=max_steps,
    )
    return result


#: What engine parity compares, in order: (failure category, field,
#: view of a RunResult).
_PARITY_FIELDS = (
    ("compile", "observables", lambda run: run.observable()),
    ("profile", "node_freq", lambda run: dict(run.profile.node_freq)),
    ("profile", "edge_freq", lambda run: dict(run.profile.edge_freq)),
    ("profile", "expr_counts", lambda run: dict(run.expr_counts)),
    ("profile", "dynamic_cost", lambda run: run.dynamic_cost),
    ("profile", "steps", lambda run: run.steps),
)


def _engine_difference(first, second) -> tuple[str, str, object, object] | None:
    """``(category, field, first view, second view)`` of the first
    difference between two run outcomes — a RunResult, or the exception
    the run raised — or ``None`` when they agree."""
    if isinstance(first, Exception) or isinstance(second, Exception):
        if type(first) is type(second) and str(first) == str(second):
            return None
        views = [
            repr(o) if isinstance(o, Exception) else o.observable()
            for o in (first, second)
        ]
        return "compile", "outcome", *views
    for category, name, view in _PARITY_FIELDS:
        a, b = view(first), view(second)
        if a != b:
            return category, name, a, b
    return None


def _check_engine_parity(result, name, inputs, outcomes, run_other) -> None:
    """Re-run each input on the other engine; record every difference."""
    for i, (args, outcome) in enumerate(zip(inputs, outcomes)):
        try:
            other = run_other(args)
        except Exception as exc:  # noqa: BLE001 - compared, not raised
            other = exc
        difference = _engine_difference(outcome, other)
        if difference is not None:
            category, what, mine, theirs = difference
            result.compile_failures.append(
                OracleFailure(
                    category, name, "engine-mismatch",
                    f"input #{i} {args}: engines disagree on {what}: "
                    f"{mine!r} vs {theirs!r}",
                )
            )


def check_case(
    result: CaseResult, oracles: tuple[str, ...] = ORACLE_NAMES
) -> CaseResult:
    """Run the requested oracles over an already-built case, in place."""
    if result.case is None:
        return result
    for name in oracles:
        oracle = ORACLES.get(name)
        if oracle is None:
            raise ValueError(f"unknown oracle {name!r}; known: {ORACLE_NAMES}")
        result.reports.append(oracle(result.case))
    return result


def run_case(
    seed: int,
    shape: str,
    *,
    oracles: tuple[str, ...] = ORACLE_NAMES,
    **build_kwargs,
) -> CaseResult:
    """``build_case`` + ``check_case`` in one deterministic call.

    This is the replay entry point: a stored failure is reproduced by
    calling this with its recorded seed/shape (and, for injected-variant
    findings, the same ``extra_variants``).
    """
    return check_case(build_case(seed, shape, **build_kwargs), oracles)


def failure_predicate(
    seed: int,
    shape: str,
    failure: OracleFailure,
    *,
    n_inputs: int = DEFAULT_INPUTS,
    max_steps: int = DEFAULT_MAX_STEPS,
    extra_variants: dict[str, VariantFn] | None = None,
):
    """A reducer predicate: does this exact failure reproduce on a
    candidate source function?

    "Exact" means the same ``(oracle, kind, variant)`` triple — the
    detail string legitimately changes as the program shrinks.  The
    candidate replaces the generated program but keeps the case's seed,
    shape and therefore argument vectors, so a reduced artifact replays
    through the very pipeline that caught the original.
    """
    # "compile" and "profile" findings are recorded by build_case itself,
    # not by a named oracle, so replay runs with no oracle list.
    oracles = (
        () if failure.oracle in ("compile", "profile") else (failure.oracle,)
    )

    def predicate(func: Function) -> bool:
        result = run_case(
            seed,
            shape,
            oracles=oracles,
            source=func,
            n_inputs=n_inputs,
            max_steps=max_steps,
            extra_variants=extra_variants,
        )
        return any(
            f.oracle == failure.oracle
            and f.kind == failure.kind
            and f.variant == failure.variant
            for f in result.failures
        )

    return predicate


@dataclass
class DriverStats:
    """Aggregate statistics over one fuzz run."""

    cases: int = 0
    skipped: int = 0
    #: oracle name -> [checks, failures] (includes the synthetic
    #: "compile" oracle for pre-oracle crashes and verifier rejects).
    per_oracle: dict[str, list[int]] = field(default_factory=dict)
    #: failure kind -> count (crash / verifier-reject / divergence / ...).
    by_kind: dict[str, int] = field(default_factory=dict)
    wall_time_s: float = 0.0
    #: True when the run was cut short (Ctrl-C, dead worker process) and
    #: these statistics therefore cover only the completed shards.
    interrupted: bool = False
    #: What cut the run short (exception class name), when interrupted.
    interrupt_reason: str | None = None

    def record(self, result: CaseResult) -> None:
        self.cases += 1
        if result.skipped is not None:
            self.skipped += 1
            return
        compile_stats = self.per_oracle.setdefault("compile", [0, 0])
        compile_stats[0] += len(result.case.compiled) if result.case else 0
        # Pre-oracle findings classify under their own bucket: "compile"
        # (a variant failed to build or run) or "profile" (a fuzzed
        # profile broke flow conservation).
        for failure in result.compile_failures:
            bucket = self.per_oracle.setdefault(failure.oracle, [0, 0])
            bucket[1] += 1
        for report in result.reports:
            stats = self.per_oracle.setdefault(report.name, [0, 0])
            stats[0] += report.checks
            stats[1] += len(report.failures)
        for failure in result.failures:
            self.by_kind[failure.kind] = self.by_kind.get(failure.kind, 0) + 1

    def merge(self, other: "DriverStats") -> "DriverStats":
        """Fold another shard's statistics into this one (returns self).

        Addition is commutative and :meth:`to_dict` sorts its maps, so
        the merged summary is identical no matter in which order the
        parallel shards complete.  Wall time is deliberately *not*
        summed: the caller owns the clock for the whole run.
        """
        self.cases += other.cases
        self.skipped += other.skipped
        for name, (checks, failures) in other.per_oracle.items():
            stats = self.per_oracle.setdefault(name, [0, 0])
            stats[0] += checks
            stats[1] += failures
        for kind, count in other.by_kind.items():
            self.by_kind[kind] = self.by_kind.get(kind, 0) + count
        self.interrupted = self.interrupted or other.interrupted
        if self.interrupt_reason is None:
            self.interrupt_reason = other.interrupt_reason
        return self

    @property
    def failures(self) -> int:
        return sum(f for _, f in self.per_oracle.values())

    def to_dict(self) -> dict:
        return {
            "cases": self.cases,
            "skipped": self.skipped,
            "failures": self.failures,
            "per_oracle": {
                name: {"checks": checks, "failures": fails}
                for name, (checks, fails) in sorted(self.per_oracle.items())
            },
            "by_kind": dict(sorted(self.by_kind.items())),
            "wall_time_s": round(self.wall_time_s, 3),
            "interrupted": self.interrupted,
        }


def run_driver(
    seeds: int | list[int],
    shapes: tuple[str, ...] = SHAPES,
    oracles: tuple[str, ...] = ORACLE_NAMES,
    *,
    seed_base: int = 0,
    n_inputs: int = DEFAULT_INPUTS,
    max_steps: int = DEFAULT_MAX_STEPS,
    extra_variants: dict[str, VariantFn] | None = None,
    on_case=None,
    engine: str = DEFAULT_ENGINE,
    jobs: int = 1,
    solver: str = "mincut",
) -> tuple[DriverStats, list[CaseResult]]:
    """Fuzz ``seeds`` × ``shapes`` cases and aggregate statistics.

    Returns the stats plus every *failing* case result (passing cases are
    counted but not kept, so a long run stays O(failures) in memory).
    ``on_case`` is an optional progress callback receiving each
    :class:`CaseResult` as it finishes.

    ``jobs > 1`` shards the seed list over worker processes.  Cases are
    deterministic in ``(seed, shape)``, statistics merge commutatively
    and the failing list is re-sorted into the sequential (shape, seed)
    order, so the aggregate is byte-identical to a single-process run
    apart from wall time.  In parallel mode ``on_case`` only sees
    *failing* cases (passing ones are counted in the worker and never
    cross the process boundary), and ``extra_variants`` callables must be
    picklable (module-level functions).
    """
    if isinstance(seeds, int):
        seeds = [seed_base + i for i in range(seeds)]
    t0 = time.perf_counter()
    if jobs > 1 and len(seeds) > 1:
        stats, failing = _run_driver_parallel(
            seeds,
            shapes,
            oracles,
            n_inputs=n_inputs,
            max_steps=max_steps,
            extra_variants=extra_variants,
            on_case=on_case,
            engine=engine,
            jobs=jobs,
            solver=solver,
        )
        stats.wall_time_s = time.perf_counter() - t0
        return stats, failing

    stats = DriverStats()
    failing: list[CaseResult] = []
    for shape in shapes:
        for seed in seeds:
            result = run_case(
                seed,
                shape,
                oracles=oracles,
                n_inputs=n_inputs,
                max_steps=max_steps,
                extra_variants=extra_variants,
                engine=engine,
                solver=solver,
            )
            stats.record(result)
            if not result.passed:
                failing.append(result)
            if on_case is not None:
                on_case(result)
    stats.wall_time_s = time.perf_counter() - t0
    return stats, failing


def _shard_worker(
    seeds: list[int],
    *,
    shapes: tuple[str, ...],
    oracles: tuple[str, ...],
    n_inputs: int,
    max_steps: int,
    extra_variants: dict[str, VariantFn] | None,
    engine: str,
    solver: str,
) -> tuple[DriverStats, list[CaseResult]]:
    """One worker process: a sequential run over its seed shard."""
    return run_driver(
        seeds,
        shapes,
        oracles,
        n_inputs=n_inputs,
        max_steps=max_steps,
        extra_variants=extra_variants,
        engine=engine,
        jobs=1,
        solver=solver,
    )


def _run_driver_parallel(
    seeds: list[int],
    shapes: tuple[str, ...],
    oracles: tuple[str, ...],
    *,
    n_inputs: int,
    max_steps: int,
    extra_variants: dict[str, VariantFn] | None,
    on_case,
    engine: str,
    jobs: int,
    solver: str,
) -> tuple[DriverStats, list[CaseResult]]:
    """Shard seeds round-robin over processes; merge deterministically."""
    shards = [seeds[i::jobs] for i in range(jobs)]
    shards = [shard for shard in shards if shard]
    worker = partial(
        _shard_worker,
        shapes=shapes,
        oracles=oracles,
        n_inputs=n_inputs,
        max_steps=max_steps,
        extra_variants=extra_variants,
        engine=engine,
        solver=solver,
    )
    stats = DriverStats()
    failing: list[CaseResult] = []
    try:
        shard_results = parallel_map(worker, shards, jobs=len(shards))
    except ParallelMapError as exc:
        # Cut short (Ctrl-C, dead worker): keep every completed shard's
        # statistics and failures instead of discarding the whole run.
        shard_results = list(exc.partial.values())
        stats.interrupted = True
        stats.interrupt_reason = type(exc.cause).__name__
    for shard_stats, shard_failing in shard_results:
        stats.merge(shard_stats)
        failing.extend(shard_failing)
    seed_pos = {seed: i for i, seed in enumerate(seeds)}
    failing.sort(key=lambda r: (shapes.index(r.shape), seed_pos[r.seed]))
    if on_case is not None:
        for result in failing:
            on_case(result)
    return stats, failing
