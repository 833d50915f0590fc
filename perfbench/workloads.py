"""The three benchmark workloads.

Each workload is built from a seed at set-up, then runs a fixed,
deterministic *pass* of operations as many times as the run's time
allows.  A pass returns per-operation latencies, the failures it saw,
and the exact values it produced (dynamic-cost and code-size ratios,
step and compile counts, provenance tallies), which must repeat bit for
bit across passes and across runs of the same code.

Expected answers always come from the reference interpreter over the
*unoptimised* prepared program, computed at set-up; the compiled engine
and the service are only ever checked against them.
"""

from __future__ import annotations

import math
import os
import random
import shutil
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import repro.pipeline as pipeline
import repro.profiles.compiled as compiled
from repro.bench.generator import generate_program, perturbed_args, random_args
from repro.bench.workloads import ALL_BENCHMARKS, CFP2006, load_suite, spec_for
from repro.check.driver import SHAPES, case_inputs, spec_for_shape
from repro.ir.printer import format_function
from repro.profiles.interp import InterpreterError, run_function
from repro.serve.server import CompileRequest, CompileService, build_artifact
from repro.serve.store import ArtifactStore, DiskStore, MemoryStore

#: Step budget of every run; the FDO protocol's own default.
MAX_STEPS = 5_000_000

#: The service never gets more executor threads than the machine has cores.
MAX_WORKERS = min(2, os.cpu_count() or 1)


@dataclass
class PassResult:
    latencies: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    exact: dict = field(default_factory=dict)


def geomean(values) -> float:
    values = list(values)
    return math.exp(math.fsum(math.log(v) for v in values) / len(values))


def _suite(seed: int):
    """The canonical suite programs with train/ref inputs drawn from *seed*.

    Seed 0 reproduces ``load_suite()`` exactly.  The programs stay the
    canonical (generator offset 0) ones: across generator offsets the
    suite's compile time moves by up to 2x, more than any regression
    bound could absorb, while new inputs still move every profile,
    speculation decision and dynamic cost.
    """
    suite = load_suite(ALL_BENCHMARKS)
    for workload in suite:
        spec = spec_for(workload.name)
        workload.train_args = random_args(spec, seed=101 + seed)
        workload.ref_args = perturbed_args(
            spec, workload.train_args, seed=202 + seed, strength=3
        )
    return suite


# ----------------------------------------------------------------------
class FdoSuite:
    """The paper's protocol over CINT2006 + CFP2006, one program per op:
    prepare -> train run (compiled engine) -> MC-SSAPRE (min cut) ->
    lower -> ref run.  Compile dominates; execution is a small share."""

    name = "fdo-suite"
    root = "fdo.program"

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self) -> None:
        self.items = []
        for workload in _suite(self.seed):
            prepared = pipeline.prepare(workload.program.func)
            expected = run_function(prepared, workload.ref_args, MAX_STEPS)
            self.items.append((workload, expected, prepared.statement_count()))

    def run_pass(self, tracer) -> PassResult:
        result = PassResult()
        cost_ratios, size_ratios = [], []
        insertions = reloads = steps = 0
        for workload, expected, size in self.items:
            start = time.perf_counter()
            try:
                with tracer.span(self.root):
                    prepared = pipeline.prepare(workload.program.func)
                    train = pipeline.make_runner("compiled")(
                        prepared, workload.train_args, MAX_STEPS
                    )
                    out = pipeline.compile_variant(
                        prepared, "mc-ssapre", profile=train.profile
                    )
                    program = compiled.compile_function(out.func)
                    ref = program.run(workload.ref_args, max_steps=MAX_STEPS)
            except InterpreterError as exc:
                result.failures.append(f"{workload.name}: {exc}")
                continue
            finally:
                result.latencies.append(time.perf_counter() - start)
            if ref.observable() != expected.observable():
                result.failures.append(f"{workload.name}: observable mismatch")
                continue
            cost_ratios.append(ref.dynamic_cost / expected.dynamic_cost)
            size_ratios.append(out.func.statement_count() / size)
            insertions += out.pre_result.total_insertions
            reloads += out.pre_result.total_reloads
            steps += train.steps + ref.steps
        if not result.failures:
            result.exact = {
                "dynamic_cost_ratio_gm": geomean(cost_ratios),
                "code_size_ratio_gm": geomean(size_ratios),
                "insertions": insertions,
                "reloads": reloads,
                "steps": steps,
            }
        return result

    def trace_store(self, tracer) -> None:
        pass  # no service

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
@dataclass
class _Op:
    """One planned request with its reference expectations."""

    request: CompileRequest
    observable: tuple
    cost: int  # unoptimised dynamic cost
    size: int  # statements of the unoptimised prepared function


def _op(request: CompileRequest, prepared, expected) -> _Op:
    return _Op(
        request, expected.observable(), expected.dynamic_cost,
        prepared.statement_count(),
    )


def _serve(service: CompileService, tracer, root: str, ops: list[_Op]) -> PassResult:
    """Send *ops* one after another: a closed loop with one client."""
    result = PassResult()
    costs: dict[tuple, float] = {}  # (key, args) -> optimised / unoptimised
    sizes: dict[str, int] = {}
    served_by: Counter[str] = Counter()
    steps = 0
    compiles = service.metrics.get("compiles")
    for op in ops:
        start = time.perf_counter()
        with tracer.span(root):
            response = service.handle(op.request)
        result.latencies.append(time.perf_counter() - start)
        if response.status != "ok":
            result.failures.append(f"{response.status}: {response.error}")
        elif response.observable() != op.observable:
            result.failures.append(f"{response.key}: observable mismatch")
        else:
            costs[(response.key, op.request.args)] = response.dynamic_cost / op.cost
            sizes[response.key] = op.size
            served_by[response.served_by] += 1
            steps += response.steps
    if result.failures:
        return result
    size_ratios = []
    for key in sorted(sizes):
        artifact = service.store.memory.get(key)
        if artifact is None:
            # Read past any traced wrapper: this is bookkeeping, not load.
            artifact = DiskStore.get(service.store.disk, key)
        size_ratios.append(artifact.func.statement_count() / sizes[key])
    result.exact = {
        "dynamic_cost_ratio_gm": geomean(costs[pair] for pair in sorted(costs)),
        "code_size_ratio_gm": geomean(size_ratios),
        "steps": steps,
        "compiles": service.metrics.get("compiles") - compiles,
        "served_by": dict(sorted(served_by.items())),
    }
    return result


def _request(source: str, args, variant: str, train_args) -> CompileRequest:
    return CompileRequest(
        source=source,
        args=tuple(args),
        variant=variant,
        train_args=tuple(train_args) if variant == "mc-ssapre" else None,
        max_steps=MAX_STEPS,
    )


class ServeWarm:
    """Warm in-process service: parse + prepare + key + memory hit + execute.

    Serves the five CFP2006 programs with the most dynamic steps on their
    ref input among those that stay under :attr:`step_budget`, each on
    its ref input under mc-ssapre and ssapre.  Every key is built during
    set-up, so a pass compiles nothing.

    The seed draws the training input (so the profile and every
    mc-ssapre artifact) and the request order; the served inputs stay
    the suite's own, because a request's execute time follows its step
    count, and seeded served inputs moved a pass's steps by up to 5x
    between seeds.  Perturbed inputs are left out to keep set-up short:
    each costs a reference-interpreter run of up to 600k steps.
    """

    name = "serve-warm"
    root = "serve.request"
    programs = 5
    #: A heavier program (GemsFDTD: 1.1M steps) would leave too
    #: few requests in a run for a p95, and its reference expectations
    #: would dominate set-up.
    step_budget = 600_000

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.service: CompileService | None = None

    def _under_budget(self, prepared, args) -> int:
        """Steps of one run, or 0 past the step budget."""
        try:
            return compiled.compile_function(prepared).run(
                args, max_steps=self.step_budget
            ).steps
        except InterpreterError:
            return 0

    def setup(self) -> None:
        self.close()
        self.ops = []
        ranked = []
        for workload in load_suite(CFP2006):
            prepared = pipeline.prepare(workload.program.func)
            steps = self._under_budget(prepared, workload.ref_args)
            if steps:
                ranked.append((-steps, workload.name, workload, prepared))
        ranked.sort(key=lambda row: row[:2])
        for _steps, name, workload, prepared in ranked[: self.programs]:
            spec = spec_for(name)
            train = random_args(spec, seed=101 + self.seed)
            source = format_function(workload.program.func)
            expected = run_function(prepared, workload.ref_args, MAX_STEPS)
            for variant in ("mc-ssapre", "ssapre"):
                request = _request(source, workload.ref_args, variant, train)
                self.ops.append(_op(request, prepared, expected))
        random.Random(f"serve-warm/{self.seed}").shuffle(self.ops)
        self.service = CompileService(max_workers=MAX_WORKERS)
        for op in self.ops:
            response = self.service.handle(op.request)  # builds every key
            if response.status != "ok":
                raise RuntimeError(f"warm-up failed: {response.error}")

    def run_pass(self, tracer) -> PassResult:
        return _serve(self.service, tracer, self.root, self.ops)

    def trace_store(self, tracer) -> None:
        tracer.wrap_store(self.service.store)

    def close(self) -> None:
        if self.service is not None:
            self.service.close()
            self.service = None


class ServeChurn:
    """A service over memory LRU + disk store whose working set is larger
    than the LRU: memory hits, disk hits (unpickle + promote) and compiles
    (build, pickle twice, evict) in one seeded mix.

    New fuzz-shape programs keep arriving; returning keys are picked with
    seeded, heavy-tailed popularity.  Every pass starts from an empty
    store in a fresh directory, so every pass sees the same mix.
    """

    name = "serve-churn"
    root = "serve.request"
    requests = 300
    #: Requests that bring a program the service has not seen; their
    #: positions in the pass are seeded, their number is fixed.
    arrivals = 30
    #: Popularity weights handed out in arrival order: skewed, and fixed,
    #: so the hit mix moves little from seed to seed.
    popularity = (8, 4, 2, 1, 1, 1)
    #: Memory-tier capacity, far under the 30 keys a pass touches: about
    #: 27% memory hits (under 40% for every seed tried), 63% disk hits and
    #: 10% compiles, so the median request is a disk hit.
    memory_entries = 2
    #: Served program sizes (prepared statements): the middle of the
    #: fuzz shapes' size range.
    statements = range(80, 161)

    def __init__(self, seed: int, scratch: Path) -> None:
        self.seed = seed
        self.scratch = scratch

    def _new_program(self, index: int) -> list[_Op]:
        """Program *index* to arrive: one op per ref-like input.

        Generated programs of one shape differ up to 5x in size, and the
        few most popular ones carry much of the traffic, so only
        programs within :attr:`statements` are served: otherwise the
        seed's draw of its hot programs would set the pass's latency.
        """
        shape = SHAPES[index % len(SHAPES)]
        while True:
            self._candidates += 1
            spec = spec_for_shape(shape, 100_000 * self.seed + self._candidates)
            func = generate_program(spec).func
            prepared = pipeline.prepare(func)
            if prepared.statement_count() in self.statements:
                break
        train, *inputs = case_inputs(spec)
        variant = ("mc-ssapre", "ssapre")[index // len(SHAPES) % 2]
        source = format_function(func)
        return [
            _op(
                _request(source, args, variant, train),
                prepared,
                run_function(prepared, args, MAX_STEPS),
            )
            for args in inputs
        ]

    def setup(self) -> None:
        rng = random.Random(f"serve-churn/{self.seed}")
        self._candidates = 0
        arrive = {0} | set(rng.sample(range(1, self.requests), self.arrivals - 1))
        programs: list[list[_Op]] = []
        weights: list[int] = []
        self.ops = []
        for position in range(self.requests):
            if position in arrive:
                programs.append(self._new_program(len(programs)))
                weights.append(self.popularity[len(weights) % len(self.popularity)])
                chosen = programs[-1]
            else:
                chosen = rng.choices(programs, weights=weights)[0]
            self.ops.append(rng.choice(chosen))

    def run_pass(self, tracer) -> PassResult:
        root = tempfile.mkdtemp(prefix="store-", dir=self.scratch)
        try:
            # Not ArtifactStore.with_disk(root, max_entries=...): the
            # facade's ``memory or MemoryStore()`` drops an empty (falsy)
            # bounded LRU for an unbounded default one.
            store = ArtifactStore(disk=DiskStore(root))
            store.memory = MemoryStore(max_entries=self.memory_entries)
            build = None
            if tracer.active:
                tracer.wrap_store(store)
                build = tracer.wrap("serve.server.build", build_artifact)
            with CompileService(store, max_workers=MAX_WORKERS, build=build) as service:
                return _serve(service, tracer, self.root, self.ops)
        finally:
            shutil.rmtree(root, ignore_errors=True)

    def trace_store(self, tracer) -> None:
        pass  # each pass wraps its own fresh store

    def close(self) -> None:
        pass
