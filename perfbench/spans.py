"""Layer spans recorded from outside the program.

The traced run wraps the public entry point of each layer (module
functions, a class method, store instance methods) and restores them
afterwards; nothing inside ``src/`` is instrumented.  Spans are kept on
one stack shared by every thread: the load comes from a single
closed-loop client, and while a build runs on the service's executor the
client thread is blocked waiting for it, so at most one thread has an
open span at any time and the executor's spans nest under the request
that is waiting for them.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter, defaultdict

#: Layers reported with ``.calls`` and ``.busy_s``.
LAYERS = (
    "lang.parse",
    "pipeline.prepare",
    "serve.keys.artifact_key",
    "profiles.train",
    "passes.compile",
    "profiles.compiled.lower",
    "profiles.compiled.run",
    "serve.store.get",
    "serve.store.put",
    "serve.server.build",
    "serve.server.execute",
)

#: Per-pass times read from the PassReport every compile returns.
PASS_LAYERS = ("clone", "construct-ssa", "mc-ssapre", "ssapre", "destruct-ssa")

#: Sub-spans of the store: the pickle-to-disk and unpickle halves.
DISK_LAYERS = ("serve.store.disk.get", "serve.store.disk.put")


class NullTracer:
    """The untraced run: spans cost one shared no-op context manager."""

    active = False
    _null = contextlib.nullcontext()

    def span(self, _name: str):
        return self._null


class Tracer:
    """Aggregates span durations by name; checks that children nest."""

    active = True

    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.busy: defaultdict[str, float] = defaultdict(float)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        #: Spans whose children's durations add up to more than their own.
        self.violations = 0
        self._stack: list[list] = []  # [name, start, child seconds]

    @contextlib.contextmanager
    def span(self, name: str):
        frame = [name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        try:
            yield
        finally:
            duration = time.perf_counter() - frame[1]
            self._stack.pop()
            self._close(name, duration, frame[2])

    def charge(self, name: str, seconds: float) -> None:
        """Account a child of the open span measured by the program itself."""
        self._close(name, seconds, 0.0)

    def _close(self, name: str, duration: float, children: float) -> None:
        # 1 µs of slack for clock granularity between nested readings.
        if children > duration + 1e-6:
            self.violations += 1
        self.calls[name] += 1
        self.busy[name] += duration
        self.self_s[name] += duration - children
        if self._stack:
            self._stack[-1][2] += duration

    def wrap(self, name: str, func, on_result=None):
        """*func* inside a span; ``on_result(result, args)`` adds counts."""

        def traced(*args, **kwargs):
            with self.span(name):
                result = func(*args, **kwargs)
                if on_result is not None:
                    # Inside the span: charged children belong to it.
                    on_result(result, args)
            return result

        return traced

    # -- count hooks -----------------------------------------------------
    def _count_steps(self, layer: str):
        def hook(result, _args):
            self.counts[f"{layer}.steps"] += result.steps

        return hook

    def _read_pass_report(self, compiled, _args) -> None:
        report = compiled.report
        self.charge("passes.clone", report.clone_time)
        for execution in report.executions:
            self.charge(f"passes.{execution.name}", execution.wall_time)
            if execution.name == "mc-ssapre":
                self.counts["passes.mc-ssapre.insertions"] += (
                    execution.payload.total_insertions
                )
                self.counts["passes.mc-ssapre.reloads"] += (
                    execution.payload.total_reloads
                )
        self.counts["passes.analysis_cache.hits"] += report.cache_hits
        self.counts["passes.analysis_cache.misses"] += report.cache_misses

    def _count_get(self, result, _args) -> None:
        _artifact, tier = result
        self.counts[f"serve.store.get.{tier or 'miss'}"] += 1

    def _count_put(self, evicted, args) -> None:
        _key, artifact = args
        self.counts["serve.store.put.bytes"] += artifact.nbytes()
        self.counts["serve.store.put.evictions"] += len(evicted)

    # -- patching ----------------------------------------------------------
    @contextlib.contextmanager
    def layers(self):
        """Wrap every module-level layer entry point for the block's duration."""
        import repro.pipeline as pipeline
        import repro.profiles.compiled as compiled
        import repro.serve.server as server

        def traced_runner(make_runner):
            def make(engine):
                return self.wrap(
                    "profiles.train", make_runner(engine),
                    self._count_steps("profiles.train"),
                )

            return make

        patches = [
            (server, "parse_function", self.wrap("lang.parse", server.parse_function)),
            (pipeline, "prepare", self.wrap("pipeline.prepare", pipeline.prepare)),
            (server, "prepare", self.wrap("pipeline.prepare", server.prepare)),
            (server, "artifact_key",
             self.wrap("serve.keys.artifact_key", server.artifact_key)),
            (pipeline, "make_runner", traced_runner(pipeline.make_runner)),
            (server, "make_runner", traced_runner(server.make_runner)),
            (pipeline, "compile_func",
             self.wrap("passes.compile", pipeline.compile_func,
                       self._read_pass_report)),
            (compiled, "compile_function",
             self.wrap("profiles.compiled.lower", compiled.compile_function)),
            (server, "compile_function",
             self.wrap("profiles.compiled.lower", server.compile_function)),
            (compiled.CompiledProgram, "run",
             self.wrap("profiles.compiled.run", compiled.CompiledProgram.run,
                       self._count_steps("profiles.compiled.run"))),
            (server, "execute_artifact",
             self.wrap("serve.server.execute", server.execute_artifact)),
        ]
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
        for owner, attr, replacement in patches:
            setattr(owner, attr, replacement)
        try:
            yield
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    def wrap_store(self, store) -> None:
        """Shadow one ArtifactStore's (and its disk tier's) get/put."""
        store.get = self.wrap("serve.store.get", store.get, self._count_get)
        store.put = self.wrap("serve.store.put", store.put, self._count_put)
        if store.disk is not None:
            store.disk.get = self.wrap("serve.store.disk.get", store.disk.get)
            store.disk.put = self.wrap("serve.store.disk.put", store.disk.put)

    # -- results -----------------------------------------------------------
    def per_layer(self, root: str, passes: int) -> dict[str, float]:
        """Every per-layer metric, normalised to one pass of the workload."""
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = self.calls[layer] / passes
            out[f"{layer}.busy_s"] = self.busy[layer] / passes
        for name in PASS_LAYERS:
            out[f"passes.{name}.busy_s"] = self.busy[f"passes.{name}"] / passes
        for layer in DISK_LAYERS:
            out[f"{layer}.busy_s"] = self.busy[layer] / passes
        hits = self.counts["passes.analysis_cache.hits"]
        lookups = hits + self.counts["passes.analysis_cache.misses"]
        out["passes.analysis_cache.hit_ratio"] = hits / lookups if lookups else 0.0
        for name in (
            "passes.mc-ssapre.insertions",
            "passes.mc-ssapre.reloads",
            "profiles.train.steps",
            "profiles.compiled.run.steps",
            "serve.store.put.bytes",
            "serve.store.put.evictions",
        ):
            out[name] = self.counts[name] / passes
        memory = self.counts["serve.store.get.memory"]
        disk = self.counts["serve.store.get.disk"]
        misses = self.counts["serve.store.get.miss"]
        out["serve.store.get.memory_hits"] = memory / passes
        out["serve.store.get.disk_hits"] = disk / passes
        out["serve.store.get.misses"] = misses / passes
        gets = memory + disk + misses
        out["serve.store.get.hit_ratio"] = (memory + disk) / gets if gets else 0.0
        unattributed = self.self_s[root] / passes
        out["serve.server.wait_s"] = unattributed if root == "serve.request" else 0.0
        out["trace.unattributed_s"] = unattributed
        out["trace.nesting_violations"] = float(self.violations)
        return out

    def shares(self, root: str) -> list[tuple[str, float]]:
        """Each span's self time as a share of the root spans' total time."""
        total = self.busy[root]
        names = [name for name in self.self_s if name != root]
        rows = [(name, self.self_s[name] / total) for name in names]
        rows.append(("(unattributed)", self.self_s[root] / total))
        return sorted(rows, key=lambda row: -row[1])
