"""The pass manager: scheduling, invalidation, observability.

Running a list of :class:`~repro.passes.base.Pass` objects over a
function produces a :class:`PassReport` with, per pass:

* wall time,
* IR size before/after (blocks and statements),
* analysis-cache hit/miss deltas (how much recomputation the pass
  caused vs reused),
* the pass's own payload (e.g. a ``PREResult``).

After each pass the manager applies the pass's ``preserves()``
declaration: an unpreserved CFG bumps the function's CFG generation
(invalidating dominators/frontiers/loops/liveness in the cache), a
preserved CFG bumps only the code generation (invalidating liveness),
and individually named analyses are re-stamped so they stay warm.

``verify_each=True`` re-verifies IR (and SSA, when the pipeline is in
SSA form) after every pass and names the offending pass on failure —
the debugging mode every production pass manager grows eventually.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

from repro.ir.function import Function
from repro.ir.verifier import VerificationError, verify_function
from repro.passes.base import (
    PRESERVE_ALL,
    PRESERVE_CFG,
    Pass,
    PassVerificationError,
)
from repro.passes.cache import AnalysisCache
from repro.profiles.profile import ExecutionProfile


@dataclass
class PassContext:
    """Everything a pass may need besides the function itself."""

    cache: AnalysisCache
    profile: ExecutionProfile | None = None
    #: Run the per-class validators inside the wrapped drivers.
    validate: bool = False
    #: Whether the function is currently in SSA form (maintained by the
    #: SSA construction/destruction passes; drives SSA verification).
    in_ssa: bool = False
    #: Payloads of already-executed passes, keyed by pass name.
    results: dict[str, object] = field(default_factory=dict)


@dataclass
class PassExecution:
    """Observability record of one executed pass."""

    name: str
    wall_time: float
    blocks_before: int
    blocks_after: int
    stmts_before: int
    stmts_after: int
    cache_hits: int
    cache_misses: int
    payload: object | None = None

    def to_dict(self) -> dict:
        return {
            "pass": self.name,
            "wall_ms": round(self.wall_time * 1e3, 3),
            "blocks": [self.blocks_before, self.blocks_after],
            "statements": [self.stmts_before, self.stmts_after],
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "payload": _payload_summary(self.payload),
        }


@dataclass
class PassReport:
    """Structured outcome of one pipeline run over one function."""

    function: str
    variant: str | None = None
    executions: list[PassExecution] = field(default_factory=list)
    #: Seconds spent copying the input (Function.clone) before the run.
    clone_time: float = 0.0
    total_time: float = 0.0
    cache_counters: dict[str, tuple[int, int]] = field(default_factory=dict)
    verified: bool = False

    # ------------------------------------------------------------------
    @property
    def cache_hits(self) -> int:
        return sum(h for h, _ in self.cache_counters.values())

    @property
    def cache_misses(self) -> int:
        return sum(m for _, m in self.cache_counters.values())

    def execution(self, name: str) -> PassExecution:
        for ex in self.executions:
            if ex.name == name:
                return ex
        raise KeyError(f"no pass named {name!r} in this report")

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "function": self.function,
            "variant": self.variant,
            "clone_ms": round(self.clone_time * 1e3, 3),
            "total_ms": round(self.total_time * 1e3, 3),
            "verified_between_passes": self.verified,
            "passes": [ex.to_dict() for ex in self.executions],
            "cache": {
                name: {"hits": h, "misses": m}
                for name, (h, m) in sorted(self.cache_counters.items())
            },
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def render(self) -> str:
        """Human-readable fixed-width report."""
        return render_report(self.to_dict())


def render_report(data: dict) -> str:
    """Render a :meth:`PassReport.to_dict` record as a fixed-width report."""
    title = f"PassReport: {data['function']}"
    if data["variant"]:
        title += f" [{data['variant']}]"
    lines = [title]
    header = (
        f"  {'pass':<18} {'ms':>8} {'blocks':>11} "
        f"{'stmts':>11} {'hit':>4} {'miss':>5}"
    )
    lines.append(header)
    lines.append("  " + "-" * (len(header) - 2))
    for ex in data["passes"]:
        blocks_before, blocks_after = ex["blocks"]
        stmts_before, stmts_after = ex["statements"]
        lines.append(
            f"  {ex['pass']:<18} {ex['wall_ms']:>8.2f} "
            f"{blocks_before:>4}->{blocks_after:<5} "
            f"{stmts_before:>4}->{stmts_after:<5} "
            f"{ex['cache_hits']:>4} {ex['cache_misses']:>5}"
        )
        payload = ex["payload"] if isinstance(ex["payload"], dict) else {}
        solver_used = payload.get("solver")
        if solver_used is not None:
            requested = payload["solver_requested"]
            note = f"    solver: {solver_used}"
            if requested not in (None, solver_used):
                note += f" (requested {requested})"
            if "shape_width" in payload:
                note += f", shape width {payload['shape_width']}"
            if payload.get("lospre_refusals"):
                note += f", {payload['lospre_refusals']} refusal(s)"
            lines.append(note)
        if payload.get("rounds"):
            per_round = "; ".join(
                f"r{s['round']}: {s['changed']}/{s['classes']} classes, "
                f"{s['insertions']} ins, {s['reloads']} reloads"
                for s in payload["rounds"]
            )
            lines.append(
                f"    rounds: {per_round} "
                f"[{'fixpoint' if payload['fixpoint'] else 'bound reached'}]"
            )
    cache = data["cache"]
    hits = sum(c["hits"] for c in cache.values())
    misses = sum(c["misses"] for c in cache.values())
    lines.append(
        f"  total {data['total_ms']:.2f} ms"
        f" (clone {data['clone_ms']:.2f} ms)"
        f" | cache {hits} hits / {misses} misses"
    )
    if cache:
        per = ", ".join(
            f"{name}: {c['hits']}h/{c['misses']}m" for name, c in cache.items()
        )
        lines.append(f"  cache by analysis: {per}")
    return "\n".join(lines)


def _payload_summary(payload: object | None) -> object | None:
    """A JSON-safe one-line summary of a pass payload."""
    if payload is None:
        return None
    if isinstance(payload, (int, float, str, bool)):
        return payload
    round_stats = getattr(payload, "round_stats", None)
    if round_stats is not None:
        # A PREResult: surface the per-round worklist observability.
        summary = {
            "type": type(payload).__name__,
            "rounds": [stats.to_dict() for stats in round_stats],
            "fixpoint": payload.fixpoint,
            "insertions": payload.total_insertions,
            "reloads": payload.total_reloads,
        }
        solver_used = getattr(payload, "solver_used", None)
        if solver_used is not None:
            # An MCPREResult: record which speculation solver ran.
            summary["solver"] = solver_used
            summary["solver_requested"] = payload.solver_requested
            if payload.shape_width is not None:
                summary["shape_width"] = payload.shape_width
            if payload.lospre_refusals:
                summary["lospre_refusals"] = payload.lospre_refusals
        return summary
    return type(payload).__name__


class PassManager:
    """Runs passes over one function, maintaining the analysis cache."""

    def __init__(self, verify_each: bool = False) -> None:
        self.verify_each = verify_each

    # ------------------------------------------------------------------
    def run(
        self,
        func: Function,
        passes: list[Pass],
        *,
        profile: ExecutionProfile | None = None,
        validate: bool = False,
        variant: str | None = None,
        cache: AnalysisCache | None = None,
        report: PassReport | None = None,
    ) -> PassReport:
        """Execute *passes* in order over *func*; returns the report.

        An existing *report* may be passed in to append to (used by
        :func:`repro.passes.compiler.compile` to account the clone).
        """
        cache = AnalysisCache.ensure(func, cache)
        ctx = PassContext(cache=cache, profile=profile, validate=validate)
        if report is None:
            report = PassReport(function=func.name, variant=variant)
        report.verified = self.verify_each
        start = time.perf_counter()

        for p in passes:
            blocks_before = len(func)
            stmts_before = func.statement_count()
            hits_before = cache.total_hits()
            misses_before = cache.total_misses()

            t0 = time.perf_counter()
            payload = p.run(func, ctx)
            elapsed = time.perf_counter() - t0

            self._apply_preserves(func, cache, p, payload)
            if self.verify_each:
                self._verify(func, ctx, p)

            ctx.results[p.name] = payload
            report.executions.append(
                PassExecution(
                    name=p.name,
                    wall_time=elapsed,
                    blocks_before=blocks_before,
                    blocks_after=len(func),
                    stmts_before=stmts_before,
                    stmts_after=func.statement_count(),
                    cache_hits=cache.total_hits() - hits_before,
                    cache_misses=cache.total_misses() - misses_before,
                    payload=payload,
                )
            )

        report.total_time += time.perf_counter() - start
        report.cache_counters = cache.counters()
        return report

    # ------------------------------------------------------------------
    @staticmethod
    def _apply_preserves(
        func: Function,
        cache: AnalysisCache,
        p: Pass,
        payload: object | None = None,
    ) -> None:
        preserved = p.preserves()
        if preserved == PRESERVE_ALL:
            return
        if not p.mutated(payload):
            # The pass declares (via its payload) that it changed
            # nothing: skip every generation bump so even code-keyed
            # analyses stay warm.
            return
        if PRESERVE_CFG in preserved:
            func.mark_code_mutated()
        else:
            func.mark_cfg_mutated()
        cache.reaffirm(frozenset(preserved) - {PRESERVE_CFG})

    def _verify(self, func: Function, ctx: PassContext, p: Pass) -> None:
        try:
            verify_function(func)
            if ctx.in_ssa:
                from repro.ssa.ssa_verifier import verify_ssa

                verify_ssa(func)
        except VerificationError as exc:
            raise PassVerificationError(
                f"pass {p.name!r} broke an IR invariant: {exc}"
            ) from exc
