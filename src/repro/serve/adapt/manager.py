"""The adaptation manager: the feedback loop from served runs to recompiles.

One :class:`AdaptationManager` per :class:`~repro.serve.server.CompileService`
(constructed when the service is given an :class:`AdaptConfig`).  It owns
one :class:`_KeyState` per *structural* key — the profile-free identity
from :func:`repro.serve.keys.structural_key` — and closes the loop the
paper leaves open: an artifact is only optimal w.r.t. the profile it was
compiled under, so the manager keeps comparing that profile against live
traffic and replaces the artifact when they part ways.

The life of a structural key:

1. **Tier 0 (interpreter).**  The first ``warmup`` hits run the
   reference interpreter over the *prepared* function — no compile is
   paid, and every run's node counts fold into the key's
   :class:`~repro.serve.adapt.live.LiveProfile` for free.
2. **Promotion.**  Once warm, a background build compiles the variant
   under the accumulated live profile (extensional — the counts
   themselves are hashed into the artifact's content address) and binds
   the artifact.  Requests are never blocked: they keep serving on the
   interpreter until the binding lands.
3. **Drift → hot swap.**  Every compiled-tier run folds its node counts
   (via the compiled back end's ``profile_hook``) and the
   :class:`~repro.serve.adapt.drift.DriftDetector` scores the live
   *run-weighted* distribution (each request one vote — see
   :meth:`~repro.serve.adapt.live.LiveProfile.mean_freq`) against the
   binding's baseline.  On drift, a background
   recompile under a fresh live snapshot builds a *new* content-addressed
   artifact and atomically swaps the binding — an immutable
   :class:`Binding` replaced by reference, so a racing request observes
   either the old artifact or the new one, never a half-swapped state.
   The previous binding is retained for :meth:`AdaptationManager.rollback`.

Builds are deduplicated twice: a per-key ``building`` flag collapses
concurrent drift events into one scheduled recompile, and the scheduled
build itself goes through the service's single-flight machinery
(:meth:`CompileService.build_keyed`), so an adapt build and a request
build racing on the same content key still compile exactly once.
Adapt builds run on the manager's own small executor so a build waiting
in single-flight can never deadlock the service's compile workers.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.ir.function import Function
from repro.pipeline import PipelineConfig
from repro.profiles.interp import RunResult
from repro.profiles.profile import ExecutionProfile
from repro.serve.adapt.drift import (
    DEFAULT_MIN_SAMPLES,
    DEFAULT_THRESHOLD,
    DriftDetector,
)
from repro.serve.adapt.live import DEFAULT_MAX_WEIGHT, LiveProfile
from repro.serve.adapt.tier import DEFAULT_WARMUP, TierPolicy
from repro.serve.keys import artifact_key
from repro.serve.store import Artifact

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.serve.server import CompileService

__all__ = ["AdaptConfig", "Binding", "AdaptationManager"]


@dataclass(frozen=True)
class AdaptConfig:
    """Knobs of the adaptation tier (all bounded-sanity-checked)."""

    #: Interpreter runs before a key is promoted to a compiled artifact.
    warmup: int = DEFAULT_WARMUP
    #: Divergence score at which drift fires, in (0, 1].
    threshold: float = DEFAULT_THRESHOLD
    #: Minimum live samples folded since the last (re)compile before the
    #: detector may fire — fresh bindings get a grace period.
    min_samples: int = DEFAULT_MIN_SAMPLES
    #: Live-profile weight budget before exponential decay halves it.
    max_weight: int = DEFAULT_MAX_WEIGHT

    def policy(self) -> TierPolicy:
        return TierPolicy(warmup=self.warmup)

    def detector(self) -> DriftDetector:
        return DriftDetector(
            threshold=self.threshold,
            min_samples=self.min_samples,
        )


@dataclass(frozen=True)
class Binding:
    """The live artifact of one structural key.  Immutable: a hot swap
    publishes a *new* binding object, so readers can never see a torn
    mix of old and new fields."""

    #: Content address of the bound artifact (profile included).
    key: str
    artifact: Artifact
    #: The mean per-run node distribution observed when the artifact was
    #: built — the drift baseline, run-weighted so it compares
    #: apples-to-apples with :meth:`LiveProfile.mean_freq`.  Empty for
    #: profile-free variants (never drift-checked).
    baseline: dict[str, float]
    #: The exact profile used for the build (``None`` = profile-free);
    #: kept so tests and benches can rebuild from scratch and prove the
    #: swapped artifact bit-identical.
    profile: ExecutionProfile | None
    #: 1 for the promotion build, +1 per hot swap.
    generation: int


class _KeyState:
    """Mutable per-structural-key state, guarded by its own lock.

    ``binding`` is read without the lock on the serve path (an atomic
    reference read of an immutable object); everything else is mutated
    under ``lock``.
    """

    __slots__ = (
        "skey", "prepared", "config", "max_steps",
        "lock", "live", "hits", "binding", "previous", "building",
    )

    def __init__(
        self,
        skey: str,
        prepared: Function,
        config: PipelineConfig,
        max_steps: int,
        max_weight: int,
    ) -> None:
        self.skey = skey
        self.prepared = prepared
        self.config = config
        self.max_steps = max_steps
        self.lock = threading.Lock()
        self.live = LiveProfile(max_weight=max_weight)
        self.hits = 0
        self.binding: Binding | None = None
        self.previous: Binding | None = None
        self.building = False


class AdaptationManager:
    """Live profiles, drift detection and hot swaps for one service."""

    def __init__(self, config: AdaptConfig, service: "CompileService") -> None:
        self.config = config
        self.service = service
        self.policy = config.policy()
        self.detector = config.detector()
        self._states: dict[str, _KeyState] = {}
        self._states_lock = threading.Lock()
        #: Dedicated build executor: an adapt build parked in the
        #: service's single-flight wait must not occupy (and potentially
        #: starve) the service's compile workers.
        self._executor = ThreadPoolExecutor(
            max_workers=2, thread_name_prefix="repro-adapt"
        )
        self._pending = 0
        self._pending_cv = threading.Condition()
        self._closed = False

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        self._closed = True
        self._executor.shutdown(wait=True)

    def drain(self, timeout: float = 60.0) -> bool:
        """Block until every scheduled background build has landed."""
        with self._pending_cv:
            return self._pending_cv.wait_for(
                lambda: self._pending == 0, timeout=timeout
            )

    def _note_spawn(self) -> None:
        with self._pending_cv:
            self._pending += 1

    def _note_done(self) -> None:
        with self._pending_cv:
            self._pending -= 1
            self._pending_cv.notify_all()

    # -- state ---------------------------------------------------------
    def state_for(
        self,
        skey: str,
        prepared: Function,
        config: PipelineConfig,
        max_steps: int,
    ) -> _KeyState:
        """The (created-on-first-sight) state of one structural key."""
        with self._states_lock:
            state = self._states.get(skey)
            if state is None:
                state = _KeyState(
                    skey, prepared, config, max_steps,
                    max_weight=self.config.max_weight,
                )
                self._states[skey] = state
            return state

    def state(self, skey: str) -> _KeyState | None:
        with self._states_lock:
            return self._states.get(skey)

    def describe(self) -> list[dict]:
        """JSON-safe per-key summary (tier, hits, samples, generation)."""
        with self._states_lock:
            states = list(self._states.values())
        rows = []
        for state in states:
            binding = state.binding
            rows.append({
                "structural_key": state.skey,
                "variant": state.config.variant,
                "tier": "compiled" if binding is not None else "interp",
                "hits": state.hits,
                "live_samples": state.live.samples,
                "generation": binding.generation if binding else 0,
            })
        return rows

    # -- the feedback loop ---------------------------------------------
    def _fold(self, state: _KeyState, node_freq) -> None:
        """Fold one run's node counts into the key's live profile.

        This is also the closure installed as the compiled program's
        ``profile_hook``: it reads ``state.live`` at call time, so a hot
        swap (which resets the accumulator) retargets every in-flight
        hook automatically.
        """
        state.live.fold(node_freq)
        self.service.metrics.inc("live_samples")

    def record_interp(self, state: _KeyState, result: RunResult) -> None:
        """Account one tier-0 (interpreter) run; maybe schedule promotion."""
        self._fold(state, result.profile.node_freq)
        with state.lock:
            state.hits += 1
            ready = (
                state.binding is None
                and not state.building
                and self.policy.should_promote(state.hits)
            )
            if ready:
                state.building = True
        if ready:
            self._spawn_build(state, promotion=True)

    def record_served(
        self, state: _KeyState, artifact: Artifact, result: RunResult
    ) -> None:
        """Account one compiled-tier run; maybe schedule a drift recompile.

        The fold itself already happened inside the run when the
        artifact carries a compiled program (its ``profile_hook`` is
        installed at bind time); an artifact without a lowered program has
        no hook, so fold here.
        """
        if artifact.program is None or artifact.program.profile_hook is None:
            self._fold(state, result.profile.node_freq)
        binding = state.binding
        if binding is None or not binding.baseline:
            return  # raced a demotion, or profile-free: nothing to re-fit
        verdict = self.detector.check(
            binding.baseline, state.live.mean_freq(), state.live.samples
        )
        if not verdict.drifted:
            return
        with state.lock:
            if state.building or state.binding is not binding:
                return  # a recompile is already pending / just landed
            state.building = True
        self.service.metrics.inc("drift_events")
        self._spawn_build(state, promotion=False)

    # -- background builds ---------------------------------------------
    def _spawn_build(self, state: _KeyState, promotion: bool) -> None:
        self._note_spawn()
        try:
            self._executor.submit(self._background_build, state, promotion)
        except RuntimeError:  # executor shut down mid-request
            with state.lock:
                state.building = False
            self._note_done()

    def _background_build(self, state: _KeyState, promotion: bool) -> None:
        try:
            needs_profile = state.config.needs_profile
            profile = state.live.snapshot() if needs_profile else None
            # The drift baseline is captured at the same instant as the
            # build profile, but run-weighted (each request one vote) so
            # later comparisons are not drowned out by long runs.
            baseline = state.live.mean_freq() if needs_profile else {}
            key = artifact_key(state.prepared, state.config, profile=profile)
            self.service.metrics.inc("recompiles")
            artifact = self.service.build_keyed(
                key,
                lambda: self.service._build(
                    state.prepared,
                    state.config,
                    key=key,
                    profile=profile,
                    max_steps=state.max_steps,
                ),
            )
            if artifact is None or artifact.degraded:
                # Never swap a broken artifact in; the interpreter (or
                # the previous binding) keeps serving correct answers.
                with state.lock:
                    state.building = False
                return
            self._bind(state, key, artifact, profile, baseline, promotion)
        except Exception:  # noqa: BLE001 - the loop must survive bad builds
            with state.lock:
                state.building = False
        finally:
            self._note_done()

    def _bind(
        self,
        state: _KeyState,
        key: str,
        artifact: Artifact,
        profile: ExecutionProfile | None,
        baseline: dict[str, float],
        promotion: bool,
    ) -> None:
        """Publish *artifact* as the key's live binding (the hot swap)."""
        if artifact.program is not None:
            # Wire live profiling into block dispatch before publication
            # so no compiled run can ever slip through unprofiled.
            artifact.program.profile_hook = (
                lambda freq, _state=state: self._fold(_state, freq)
            )
        with state.lock:
            previous = state.binding
            state.binding = Binding(
                key=key,
                artifact=artifact,
                baseline=baseline,
                profile=profile,
                generation=previous.generation + 1 if previous else 1,
            )
            state.previous = previous
            # Restart accumulation against the new baseline: drift is
            # measured for the artifact now serving, not its ancestors.
            state.live = LiveProfile(max_weight=self.config.max_weight)
            state.building = False
        metrics = self.service.metrics
        if promotion or previous is None:
            metrics.inc("tier_promotions")
        else:
            metrics.inc("hot_swaps")

    # -- operator verbs ------------------------------------------------
    def rollback(self, skey: str) -> bool:
        """Swap the previous artifact back in (one level of undo)."""
        state = self.state(skey)
        if state is None:
            return False
        with state.lock:
            if state.previous is None:
                return False
            state.binding, state.previous = state.previous, state.binding
            state.live = LiveProfile(max_weight=self.config.max_weight)
        self.service.metrics.inc("rollbacks")
        return True

    def demote(self, skey: str) -> bool:
        """Drop the key back to the interpreter tier (bail out).

        The binding is discarded and the warmup clock restarts, so the
        key must re-earn promotion with fresh profiling runs.
        """
        state = self.state(skey)
        if state is None:
            return False
        with state.lock:
            if state.binding is None:
                return False
            state.previous = state.binding
            state.binding = None
            state.hits = 0
            state.live = LiveProfile(max_weight=self.config.max_weight)
        self.service.metrics.inc("tier_demotions")
        return True
