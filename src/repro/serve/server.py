"""The compile-and-run service: cache, single-flight, timeout, fallback.

:class:`CompileService` is the front end the CLI (and the tests) drive.
One request carries a source program, a pipeline configuration and an
argument vector; the service answers with the program's observable
behaviour plus where the answer came from:

* **memory / disk** — the artifact was already cached;
* **compile** — this request built the artifact (and cached it);
* **coalesced** — another in-flight request for the same key was already
  building it, so this one just waited for that build (single-flight:
  N concurrent identical requests trigger exactly one compile).

Failure is graceful by construction: if the requested variant's compile
raises, the service degrades to the *prepared* function on the reference
interpreter — the answer stays correct, only slower, and the response is
marked ``degraded``.  A build that exceeds the request's deadline answers
``timeout`` without poisoning the cache (the build keeps running and
later requests hit its artifact).

:func:`build_artifact` is the pure build step, deliberately usable
without a service — the ``cache`` oracle in :mod:`repro.check` calls it
directly to prove warm-cache answers bit-identical to cold compiles.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.serve.adapt.manager import AdaptConfig

from repro.ir.function import Function
from repro.lang.parser import parse_function
from repro.pipeline import (
    ENGINES,
    PipelineConfig,
    compile_variant,
    make_runner,
    prepare,
)
from repro.profiles.compiled import compile_function
from repro.profiles.interp import InterpreterError, RunResult, run_function
from repro.profiles.profile import ExecutionProfile
from repro.serve.keys import artifact_key, structural_key
from repro.serve.metrics import ServeMetrics
from repro.serve.store import Artifact, ArtifactStore

#: Default per-request deadline (seconds).  Generous: tier-1 compiles run
#: in milliseconds; the deadline exists for adversarial inputs.
DEFAULT_TIMEOUT_S = 30.0

DEFAULT_MAX_STEPS = 2_000_000

__all__ = [
    "DEFAULT_TIMEOUT_S",
    "CompileRequest",
    "ServeResponse",
    "CompileService",
    "build_artifact",
    "execute_artifact",
]


@dataclass(frozen=True)
class CompileRequest:
    """One serving request: a program, a pipeline config, an input vector."""

    source: str
    args: tuple[int, ...] = ()
    variant: str = "mc-ssapre"
    #: Training input for profile-guided variants; part of the cache key.
    train_args: tuple[int, ...] | None = None
    engine: str = "compiled"
    fold_constants: bool = False
    cleanup: bool = False
    rounds: int = 1
    #: Speculation solver for mc-ssapre requests ("mincut"/"lospre"/
    #: "auto"); "auto" is cache-keyed by the solver it resolves to.
    solver: str = "mincut"
    max_steps: int = DEFAULT_MAX_STEPS

    def config(self) -> PipelineConfig:
        return PipelineConfig(
            variant=self.variant,
            fold_constants=self.fold_constants,
            cleanup=self.cleanup,
            rounds=self.rounds,
            solver=self.solver,
        )

    @classmethod
    def from_dict(cls, data: dict) -> "CompileRequest":
        """Build a request from one JSON-lines record (the wire format)."""
        if not isinstance(data, dict):
            raise ValueError(f"request must be a JSON object, got {type(data).__name__}")
        if "source" not in data:
            raise ValueError("request is missing 'source'")
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown request fields: {sorted(unknown)}")
        kwargs = dict(data)
        kwargs["args"] = tuple(kwargs.get("args", ()))
        if kwargs.get("train_args") is not None:
            kwargs["train_args"] = tuple(kwargs["train_args"])
        return cls(**kwargs)


@dataclass
class ServeResponse:
    """One serving answer: status, provenance and observable behaviour."""

    status: str  # "ok" | "error" | "timeout"
    served_by: str | None = None  # "compile" | "memory" | "disk" | "coalesced"
    key: str | None = None
    variant: str | None = None
    degraded: bool = False
    return_value: int | None = None
    output: tuple[int, ...] = ()
    dynamic_cost: int | None = None
    steps: int | None = None
    error: str | None = None
    timings: dict[str, float] = field(default_factory=dict)

    def observable(self) -> tuple:
        return (self.return_value, tuple(self.output))

    @classmethod
    def from_dict(cls, data: dict) -> "ServeResponse":
        """Rebuild a response from its wire form (inverse of to_dict);
        TCP clients use this to look exactly like an in-process service."""
        return cls(
            status=data.get("status", "error"),
            served_by=data.get("served_by"),
            key=data.get("key"),
            variant=data.get("variant"),
            degraded=bool(data.get("degraded", False)),
            return_value=data.get("return_value"),
            output=tuple(data.get("output") or ()),
            dynamic_cost=data.get("dynamic_cost"),
            steps=data.get("steps"),
            error=data.get("error"),
            timings=dict(data.get("timings") or {}),
        )

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "served_by": self.served_by,
            "key": self.key,
            "variant": self.variant,
            "degraded": self.degraded,
            "return_value": self.return_value,
            "output": list(self.output),
            "dynamic_cost": self.dynamic_cost,
            "steps": self.steps,
            "error": self.error,
            "timings": {k: round(v, 6) for k, v in self.timings.items()},
        }


def build_artifact(
    prepared: Function,
    config: PipelineConfig,
    *,
    key: str,
    engine: str = "compiled",
    train_args: tuple[int, ...] | None = None,
    profile: ExecutionProfile | None = None,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> Artifact:
    """Cold-build one artifact: train, optimise, lower.  Pure — no cache.

    This is the single definition of "what a cache miss computes"; the
    server and the ``cache`` consistency oracle share it, so whatever a
    warm hit returns is byte-comparable against a fresh call of this.
    Profile-guided configs take either ``train_args`` (intensional: a
    training run on *engine* produces the profile) or an explicit
    ``profile`` (extensional — the adaptation tier passes its live
    snapshot here).  Compile failures degrade to the prepared function on
    the reference interpreter rather than raising: a served answer must
    exist for every well-formed program.
    """
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
    if profile is not None and train_args is not None:
        raise ValueError("pass either train_args or profile, not both")
    train_profile = profile if config.needs_profile else None
    if config.needs_profile and train_profile is None:
        if train_args is None:
            raise ValueError(
                f"variant {config.variant!r} is profile-guided and needs "
                "train_args or an explicit profile"
            )
        runner = make_runner(engine)
        train_profile = runner(prepared, list(train_args), max_steps).profile
    train_node_freq = (
        dict(train_profile.node_freq) if train_profile is not None else None
    )
    try:
        compiled = compile_variant(prepared, config, train_profile)
    except Exception as exc:  # noqa: BLE001 - degrade, never fail the request
        return Artifact(
            key=key,
            variant=config.variant,
            engine=engine,
            func=prepared,
            program=None,
            report=None,
            degraded=True,
            degraded_reason=f"{type(exc).__name__}: {exc}",
            train_node_freq=train_node_freq,
        )
    program = None
    if engine == "compiled":
        program = compile_function(compiled.func)
    report = compiled.report.to_dict() if compiled.report is not None else None
    return Artifact(
        key=key,
        variant=config.variant,
        engine=engine,
        func=compiled.func,
        program=program,
        report=report,
        train_node_freq=train_node_freq,
    )


def execute_artifact(
    artifact: Artifact,
    args: tuple[int, ...],
    max_steps: int = DEFAULT_MAX_STEPS,
) -> RunResult:
    """Run a served artifact: compiled program if present, else reference."""
    if artifact.program is not None:
        return artifact.program.run(list(args), max_steps=max_steps)
    return run_function(artifact.func, list(args), max_steps=max_steps)


class _Flight:
    """One in-flight build; waiters block on :attr:`done`."""

    __slots__ = ("done", "artifact", "error", "rehydrated")

    def __init__(self) -> None:
        self.done = threading.Event()
        self.artifact: Artifact | None = None
        self.error: BaseException | None = None
        #: True when the cross-process lock was won *after* another
        #: worker already published the artifact: no compile ran here.
        self.rehydrated = False


class CompileService:
    """Thread-safe compile-and-run front end over an :class:`ArtifactStore`."""

    def __init__(
        self,
        store: ArtifactStore | None = None,
        metrics: ServeMetrics | None = None,
        *,
        max_workers: int = 4,
        timeout_s: float = DEFAULT_TIMEOUT_S,
        build: Callable[..., Artifact] | None = None,
        adapt: "AdaptConfig | None" = None,
        lock_dir: str | None = None,
        plan_cache: int = 0,
    ) -> None:
        self.store = store or ArtifactStore()
        self.metrics = metrics or ServeMetrics()
        self.timeout_s = timeout_s
        self._corrupt_seen = self.store.disk_corrupt
        #: Injectable cold-build (tests swap in slow/failing builds to
        #: exercise coalescing and timeouts deterministically).
        self._build = build or build_artifact
        self._executor = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="repro-serve"
        )
        self._inflight: dict[str, _Flight] = {}
        self._inflight_lock = threading.Lock()
        #: Cross-process single-flight (docs/SERVING.md "Cluster"): when
        #: several worker processes share one disk tier, per-key file
        #: locks under ``lock_dir`` extend the in-flight table across
        #: them — the race loser rehydrates from disk instead of
        #: recompiling.  ``None`` (the default) keeps the classic
        #: single-process behaviour.
        self._locks = None
        if lock_dir is not None:
            from repro.serve.cluster.locks import KeyLockManager

            self._locks = KeyLockManager(
                lock_dir,
                on_break=lambda _path: self.metrics.inc("lock_breaks"),
            )
        #: Bounded plan cache: memoises (source, config, engine,
        #: train_args) -> (prepared function, resolved config, artifact
        #: key), skipping parse/prepare/key on repeat requests.  Safe
        #: because the pipeline never mutates its input function
        #: (repro.pipeline docstring).  0 (the default) disables it so
        #: the single-process latency pins keep measuring the full
        #: request path; cluster workers turn it on, where hash routing
        #: concentrates each program's traffic on its owning worker.
        self._plan_cache_size = plan_cache
        self._plans: OrderedDict[tuple, tuple] = OrderedDict()
        self._plans_lock = threading.Lock()
        #: The online re-optimisation tier (docs/SERVING.md "Adaptation").
        #: ``None`` keeps the classic compile-on-miss behaviour.
        self.adapt = None
        if adapt is not None:
            from repro.serve.adapt.manager import AdaptationManager

            self.adapt = AdaptationManager(adapt, self)

    def close(self) -> None:
        if self.adapt is not None:
            self.adapt.close()
        self._executor.shutdown(wait=True)

    def __enter__(self) -> "CompileService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    def handle(self, request: CompileRequest) -> ServeResponse:
        """Serve one request end to end.  Never raises: errors become
        ``status="error"`` responses so one bad request cannot take down
        the serving loop."""
        t_start = time.perf_counter()
        self.metrics.inc("requests")
        try:
            response = self._handle(request, t_start)
        except Exception as exc:  # noqa: BLE001 - the loop must survive
            self.metrics.inc("errors")
            response = ServeResponse(
                status="error",
                variant=request.variant,
                error=f"{type(exc).__name__}: {exc}",
            )
        response.timings["request_s"] = time.perf_counter() - t_start
        self.metrics.observe("request_s", response.timings["request_s"])
        return response

    # ------------------------------------------------------------------
    def _handle(self, request: CompileRequest, t_start: float) -> ServeResponse:
        if self.adapt is not None:
            config = request.config()  # validates variant/rounds/solver
            prepared = prepare(parse_function(request.source))
            config = config.resolved(prepared)
            return self._handle_adaptive(request, prepared, config)
        prepared, config, key = self._plan(request)
        deadline = t_start + self.timeout_s

        artifact, tier = self.store.get(key)
        self._sync_disk_corrupt()
        if artifact is not None:
            self.metrics.inc("hits_memory" if tier == "memory" else "hits_disk")
            served_by = tier
        else:
            artifact, served_by = self._build_single_flight(
                key, prepared, config, request, deadline
            )
            if artifact is None:  # deadline passed while building
                self.metrics.inc("timeouts")
                return ServeResponse(
                    status="timeout",
                    key=key,
                    variant=config.variant,
                    error=f"build exceeded {self.timeout_s:g}s deadline",
                )
        if artifact.degraded:
            self.metrics.inc("degraded")

        t_exec = time.perf_counter()
        try:
            result = execute_artifact(artifact, request.args, request.max_steps)
        except InterpreterError as exc:
            self.metrics.inc("errors")
            return ServeResponse(
                status="error",
                served_by=served_by,
                key=key,
                variant=config.variant,
                degraded=artifact.degraded,
                error=f"InterpreterError: {exc}",
            )
        execute_s = time.perf_counter() - t_exec
        self.metrics.observe("execute_s", execute_s)

        return ServeResponse(
            status="ok",
            served_by=served_by,
            key=key,
            variant=config.variant,
            degraded=artifact.degraded,
            return_value=result.return_value,
            output=tuple(result.output),
            dynamic_cost=result.dynamic_cost,
            steps=result.steps,
            timings={"execute_s": execute_s},
        )

    # ------------------------------------------------------------------
    def _handle_adaptive(
        self,
        request: CompileRequest,
        prepared: Function,
        config: PipelineConfig,
    ) -> ServeResponse:
        """Serve one request through the tiered adaptation loop.

        Identity is the *structural* key (profile excluded): all traffic
        for one (program, config, engine) shares a live profile and one
        hot-swappable artifact binding.  An unbound key serves on the
        reference interpreter over the prepared function (tier 0,
        profiling for free); a bound key serves the pinned artifact.
        The binding read is a single reference load of an immutable
        object, so a request racing a hot swap sees the old artifact or
        the new one — never a mixture — and never blocks on the swap.
        """
        skey = structural_key(prepared, config, engine=request.engine)
        state = self.adapt.state_for(
            skey, prepared, config, request.engine, request.max_steps
        )
        binding = state.binding  # atomic snapshot; may hot-swap underneath
        t_exec = time.perf_counter()
        if binding is None:
            self.metrics.inc("tier_interp")
            served_by, key = "interp", skey
            degraded = False
            try:
                result = run_function(
                    prepared, list(request.args), max_steps=request.max_steps
                )
            except InterpreterError as exc:
                self.metrics.inc("errors")
                return ServeResponse(
                    status="error",
                    served_by=served_by,
                    key=key,
                    variant=config.variant,
                    error=f"InterpreterError: {exc}",
                )
            self.adapt.record_interp(state, result)
        else:
            self.metrics.inc("hits_memory")
            served_by, key = "memory", binding.key
            artifact = binding.artifact
            degraded = artifact.degraded
            try:
                result = execute_artifact(
                    artifact, request.args, request.max_steps
                )
            except InterpreterError as exc:
                self.metrics.inc("errors")
                return ServeResponse(
                    status="error",
                    served_by=served_by,
                    key=key,
                    variant=config.variant,
                    degraded=degraded,
                    error=f"InterpreterError: {exc}",
                )
            self.adapt.record_served(state, artifact, result)
        execute_s = time.perf_counter() - t_exec
        self.metrics.observe("execute_s", execute_s)
        return ServeResponse(
            status="ok",
            served_by=served_by,
            key=key,
            variant=config.variant,
            degraded=degraded,
            return_value=result.return_value,
            output=tuple(result.output),
            dynamic_cost=result.dynamic_cost,
            steps=result.steps,
            timings={"execute_s": execute_s},
        )

    # ------------------------------------------------------------------
    def _plan(self, request: CompileRequest) -> tuple[Function, PipelineConfig, str]:
        """Parse, prepare and key one request — memoised when the plan
        cache is on.

        The plan is everything about a request that does not depend on
        its input vector: the prepared function, the solver-resolved
        config and the artifact key.  On a warm service they are about
        half of a request: in a traced perfbench serve-warm run (five
        CFP programs, every key in memory, seed 0) parse took 15%,
        prepare 25% and the artifact key 8% of the traced time, against
        48% for executing the chord-counted artifact.  Cluster workers
        therefore cache plans per distinct (source, config, engine,
        train_args).
        """
        plan_key = None
        if self._plan_cache_size:
            plan_key = (
                request.source,
                request.variant,
                request.fold_constants,
                request.cleanup,
                request.rounds,
                request.solver,
                request.engine,
                request.train_args,
            )
            with self._plans_lock:
                plan = self._plans.get(plan_key)
                if plan is not None:
                    self._plans.move_to_end(plan_key)
            if plan is not None:
                self.metrics.inc("plan_hits")
                return plan
        config = request.config()  # validates variant/rounds/solver
        prepared = prepare(parse_function(request.source))
        # Resolve solver="auto" against the prepared function once: the
        # key, the build and the artifact's report all see the concrete
        # solver the classifier picked.
        config = config.resolved(prepared)
        key = artifact_key(
            prepared,
            config,
            engine=request.engine,
            train_args=request.train_args,
        )
        if plan_key is not None:
            with self._plans_lock:
                self._plans[plan_key] = (prepared, config, key)
                self._plans.move_to_end(plan_key)
                while len(self._plans) > self._plan_cache_size:
                    self._plans.popitem(last=False)
        return prepared, config, key

    # ------------------------------------------------------------------
    def _build_single_flight(
        self,
        key: str,
        prepared: Function,
        config: PipelineConfig,
        request: CompileRequest,
        deadline: float,
    ) -> tuple[Artifact | None, str]:
        """Build (or wait for) the artifact for *key*; exactly one build
        runs per key no matter how many requests race on it."""
        with self._inflight_lock:
            flight = self._inflight.get(key)
            leader = flight is None
            if leader:
                flight = _Flight()
                self._inflight[key] = flight
        if not leader:
            # Someone else is compiling this key: wait for their result.
            self.metrics.inc("coalesced")
            if not flight.done.wait(timeout=max(0.0, deadline - time.perf_counter())):
                return None, "coalesced"
            if flight.error is not None:
                raise flight.error
            return flight.artifact, "coalesced"

        self.metrics.inc("misses")

        def thunk() -> Artifact:
            return self._build(
                prepared,
                config,
                key=key,
                engine=request.engine,
                train_args=request.train_args,
                max_steps=request.max_steps,
            )

        future = self._executor.submit(self._run_build, key, flight, thunk)
        try:
            artifact = future.result(timeout=max(0.0, deadline - time.perf_counter()))
        except FutureTimeout:
            # The build keeps running; when it lands it resolves the
            # flight and populates the cache for later requests.
            return None, "compile"
        # Losing the cross-process race is a disk hit, not a compile.
        return artifact, "disk" if flight.rehydrated else "compile"

    def build_keyed(
        self,
        key: str,
        thunk: Callable[[], Artifact],
        timeout: float | None = None,
    ) -> Artifact | None:
        """Single-flight build of *key* from an arbitrary build thunk.

        The shared dedup entry point: the request path and the
        adaptation tier's background recompiles both route through the
        same in-flight table, so two paths racing on one content key
        still compile exactly once.  The leader runs *thunk* on the
        calling thread (callers are already on a worker); followers wait
        for the leader's artifact (``None`` only on a timed-out wait).
        """
        with self._inflight_lock:
            flight = self._inflight.get(key)
            leader = flight is None
            if leader:
                flight = _Flight()
                self._inflight[key] = flight
        if not leader:
            if not flight.done.wait(timeout=timeout):
                return None
            if flight.error is not None:
                raise flight.error
            return flight.artifact
        return self._run_build(key, flight, thunk)

    def _sync_disk_corrupt(self) -> None:
        """Mirror the disk store's corruption count into the metrics."""
        corrupt = self.store.disk_corrupt
        if corrupt > self._corrupt_seen:
            self.metrics.inc("disk_corrupt", corrupt - self._corrupt_seen)
            self._corrupt_seen = corrupt

    def _run_build(
        self,
        key: str,
        flight: _Flight,
        thunk: Callable[[], Artifact],
    ) -> Artifact:
        """The leader's build (request path: on the executor, so it can
        outlive a timed-out request; adapt path: on the manager's worker).
        Resolves the flight and fills the cache.

        With a lock directory configured, the build also holds the
        cross-process file lock for *key*, and re-checks the shared
        store once the lock is won: losing a cold-key race against
        another worker means the artifact is already on disk, so this
        process rehydrates instead of compiling a duplicate.
        """
        try:
            if self._locks is None:
                artifact = self._compile_into_store(key, thunk)
            else:
                with self._locks.holding(key):
                    cached, _tier = self.store.get(key)
                    if cached is not None:
                        # The request still counted as a miss (both
                        # cache tiers were empty at lookup), so in
                        # cluster mode misses == compiles +
                        # lock_rehydrates.
                        self.metrics.inc("lock_rehydrates")
                        flight.rehydrated = True
                        artifact = cached
                    else:
                        artifact = self._compile_into_store(key, thunk)
            flight.artifact = artifact
            return artifact
        except BaseException as exc:
            flight.error = exc
            raise
        finally:
            with self._inflight_lock:
                self._inflight.pop(key, None)
            flight.done.set()

    def _compile_into_store(self, key: str, thunk: Callable[[], Artifact]) -> Artifact:
        t0 = time.perf_counter()
        self.metrics.inc("compiles")
        artifact = thunk()
        if artifact.degraded:
            self.metrics.inc("compile_failures")
        self.metrics.observe("compile_s", time.perf_counter() - t0)
        evicted = self.store.put(key, artifact)
        if evicted:
            self.metrics.inc("evictions", len(evicted))
        return artifact
