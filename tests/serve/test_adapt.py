"""Adaptation tier: live profiles, drift detection, tiering, hot swaps."""

import threading
import time

import pytest

from repro.pipeline import PipelineConfig, prepare
from repro.profiles.interp import run_function
from repro.serve.adapt import AdaptConfig, DriftDetector, LiveProfile, TierPolicy
from repro.serve.adapt.drift import l1_distance
from repro.serve.adapt.tier import TIER_COMPILED, TIER_INTERP
from repro.serve.keys import artifact_key, structural_key
from repro.serve.server import CompileRequest, CompileService, build_artifact

from tests.conftest import build_while_loop


def _wait_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return False


def _adaptive_service(**overrides) -> CompileService:
    cfg = dict(warmup=2, threshold=0.2, min_samples=3)
    cfg.update(overrides)
    return CompileService(adapt=AdaptConfig(**cfg))


def _loop_request(source: str, n: int) -> CompileRequest:
    """The conftest while loop with trip count *n* — the knob that moves
    the node-frequency distribution between phases."""
    return CompileRequest(
        source=source, args=(2, 3, n), variant="mc-ssapre", train_args=(2, 3, n)
    )


def _only_state(service: CompileService):
    (state,) = service.adapt._states.values()
    return state


class TestDriftDetector:
    def test_empty_live_profile_is_never_drift(self):
        detector = DriftDetector(min_samples=1)
        verdict = detector.check({"a": 10}, {}, samples=0)
        assert not verdict.drifted
        assert verdict.score == 0.0
        assert verdict.reason == "no-live-profile"

    def test_empty_baseline_is_never_drift(self):
        detector = DriftDetector(min_samples=1)
        verdict = detector.check({}, {"a": 10}, samples=50)
        assert not verdict.drifted
        assert verdict.reason == "no-baseline"

    def test_identical_profiles_score_zero(self):
        detector = DriftDetector(min_samples=1)
        freq = {"entry": 1, "body": 40, "exit": 1}
        verdict = detector.check(freq, dict(freq), samples=10)
        assert verdict.score == 0.0
        assert verdict.reason == "below-threshold"

    def test_scaled_profile_scores_zero(self):
        # Same shape, 100x the mass: identical placement decisions.
        detector = DriftDetector(min_samples=1)
        assert detector.score({"a": 1, "b": 3}, {"a": 100, "b": 300}) == 0.0

    def test_zero_frequency_nodes_are_ignored(self):
        detector = DriftDetector(min_samples=1)
        assert detector.score({"a": 10, "dead": 0}, {"a": 7}) == 0.0
        # All-zero maps count as empty, not as a divergent distribution.
        verdict = detector.check({"a": 0, "b": 0}, {"a": 5}, samples=10)
        assert verdict.reason == "no-baseline"

    def test_below_minimum_sample_gate_holds_even_on_disjoint_support(self):
        detector = DriftDetector(threshold=0.1, min_samples=16)
        verdict = detector.check({"a": 10}, {"b": 10}, samples=15)
        assert not verdict.drifted
        assert verdict.reason == "insufficient-samples"
        assert verdict.score == 1.0  # the score is still reported
        fired = detector.check({"a": 10}, {"b": 10}, samples=16)
        assert fired.drifted
        assert fired.reason == "drift"

    def test_metric_bounds_on_disjoint_support(self):
        p, q = {"a": 1.0}, {"b": 1.0}
        assert l1_distance(p, q) == 1.0

    def test_invalid_parameters_are_rejected(self):
        with pytest.raises(ValueError):
            DriftDetector(threshold=0.0)
        with pytest.raises(ValueError):
            DriftDetector(threshold=1.5)
        with pytest.raises(ValueError):
            DriftDetector(min_samples=0)


class TestLiveProfile:
    def test_fold_accumulates_counts_and_samples(self):
        live = LiveProfile()
        live.fold({"a": 3, "b": 1})
        live.fold({"a": 2})
        assert live.node_freq() == {"a": 5, "b": 1}
        assert live.samples == 2
        assert live.weight == 6
        assert live.snapshot().node_freq == {"a": 5, "b": 1}

    def test_decay_halves_counts_once_weight_exceeds_budget(self):
        live = LiveProfile(max_weight=10)
        live.fold({"a": 8, "b": 4})  # weight 12 > 10 -> halve
        assert live.decays == 1
        assert live.node_freq() == {"a": 4, "b": 2}
        assert live.weight == 6

    def test_decay_ages_rare_labels_out(self):
        live = LiveProfile(max_weight=4)
        live.fold({"hot": 8, "rare": 1})  # halving drops rare to 0
        assert "rare" not in live.node_freq()
        assert live.weight == live.node_freq()["hot"]

    def test_mean_freq_gives_each_run_one_vote(self):
        # One long run on "a", one tiny run on "b": count-weighted mass
        # is all "a", but the per-run mean splits 50/50 — short runs must
        # be able to register in the drift signal.
        live = LiveProfile()
        live.fold({"a": 1000})
        live.fold({"b": 1})
        assert live.distribution()["a"] == pytest.approx(1000 / 1001)
        mean = live.mean_distribution()
        assert mean["a"] == pytest.approx(0.5)
        assert mean["b"] == pytest.approx(0.5)

    def test_all_zero_fold_counts_a_sample_but_no_mass(self):
        live = LiveProfile()
        live.fold({"a": 0})
        assert live.samples == 1
        assert live.weight == 0
        assert live.node_freq() == {}
        assert live.mean_freq() == {}

    def test_max_weight_must_be_positive(self):
        with pytest.raises(ValueError):
            LiveProfile(max_weight=0)


class TestTierPolicy:
    def test_promotion_at_the_warmup_boundary(self):
        policy = TierPolicy(warmup=3)
        assert not policy.should_promote(2)
        assert policy.should_promote(3)

    def test_tier_follows_the_binding_not_the_hits(self):
        policy = TierPolicy(warmup=2)
        # Past warmup but the async build has not landed yet.
        assert policy.tier_for(10, bound=False) == TIER_INTERP
        assert policy.tier_for(0, bound=True) == TIER_COMPILED

    def test_negative_warmup_is_rejected(self):
        with pytest.raises(ValueError):
            TierPolicy(warmup=-1)


class TestStructuralKey:
    def test_profile_does_not_move_the_structural_key(self, loop_source):
        prepared = prepare(build_while_loop())
        config = PipelineConfig(variant="mc-ssapre")
        skey = structural_key(prepared, config)
        assert skey == structural_key(prepared, config)
        # The content address *does* move with the training input; the
        # structural key is the stable indirection hot swaps pivot on.
        key_a = artifact_key(prepared, config, train_args=(2, 3, 1))
        key_b = artifact_key(prepared, config, train_args=(2, 3, 50))
        assert key_a != key_b
        assert skey not in (key_a, key_b)

    def test_engine_and_config_move_the_structural_key(self):
        prepared = prepare(build_while_loop())
        config = PipelineConfig(variant="mc-ssapre")
        assert structural_key(prepared, config) != structural_key(
            prepared, config, engine="reference"
        )
        assert structural_key(prepared, config) != structural_key(
            prepared, PipelineConfig(variant="ssapre")
        )


class TestTieredServing:
    def test_warmup_serves_on_interp_then_promotes(self, loop_source):
        with _adaptive_service(warmup=2) as service:
            first = service.handle(_loop_request(loop_source, 8))
            assert first.status == "ok"
            assert first.served_by == "interp"
            second = service.handle(_loop_request(loop_source, 8))
            assert second.status == "ok"
            assert service.adapt.drain(timeout=30.0)
            third = service.handle(_loop_request(loop_source, 8))
            assert third.status == "ok"
            assert third.served_by == "memory"
            # All tiers agree with each other (same args).
            assert first.observable() == third.observable()
            counters = service.metrics.to_dict()["counters"]
            assert counters["tier_promotions"] == 1
            assert counters["tier_interp"] == 2
            assert counters["live_samples"] >= 3

    def test_interp_tier_matches_the_reference(self, loop_source):
        expected = run_function(prepare(build_while_loop()), [2, 3, 8])
        with _adaptive_service(warmup=100) as service:
            response = service.handle(_loop_request(loop_source, 8))
        assert response.status == "ok"
        assert response.served_by == "interp"
        assert response.observable() == expected.observable()

    def test_promotion_build_never_blocks_requests(self, loop_source):
        gate = threading.Event()
        calls = []

        def gated_build(prepared, config, *, key, engine="compiled",
                        train_args=None, profile=None, max_steps=2_000_000):
            calls.append(key)
            assert gate.wait(timeout=30.0), "test never released the build"
            return build_artifact(
                prepared, config, key=key, engine=engine,
                train_args=train_args, profile=profile, max_steps=max_steps,
            )

        service = CompileService(
            build=gated_build, adapt=AdaptConfig(warmup=1, min_samples=3)
        )
        try:
            first = service.handle(_loop_request(loop_source, 8))
            assert first.served_by == "interp"
            assert _wait_until(lambda: calls)  # the build is now parked
            # Requests keep flowing on the interpreter while the compile
            # is stuck — promotion is asynchronous by construction.
            for _ in range(5):
                response = service.handle(_loop_request(loop_source, 8))
                assert response.status == "ok"
                assert response.served_by == "interp"
            gate.set()
            assert service.adapt.drain(timeout=30.0)
            landed = service.handle(_loop_request(loop_source, 8))
            assert landed.served_by == "memory"
            assert landed.observable() == first.observable()
        finally:
            gate.set()
            service.close()

    def test_profile_free_variant_is_never_drift_checked(self, loop_source):
        request = CompileRequest(
            source=loop_source, args=(2, 3, 8), variant="ssapre"
        )
        shifted = CompileRequest(
            source=loop_source, args=(2, 3, 0), variant="ssapre"
        )
        with _adaptive_service(
            warmup=1, threshold=0.01, min_samples=1
        ) as service:
            service.handle(request)
            assert service.adapt.drain(timeout=30.0)
            for _ in range(6):
                assert service.handle(shifted).status == "ok"
            assert service.adapt.drain(timeout=30.0)
            state = _only_state(service)
            assert state.binding.baseline == {}
            counters = service.metrics.to_dict()["counters"]
            assert counters["drift_events"] == 0
            assert counters["hot_swaps"] == 0


class TestDriftRecompile:
    def test_phase_shift_triggers_recompile_and_hot_swap(self, loop_source):
        with _adaptive_service(
            warmup=1, threshold=0.2, min_samples=4
        ) as service:
            # Phase one: long loops; promote under that profile.
            service.handle(_loop_request(loop_source, 12))
            assert service.adapt.drain(timeout=30.0)
            state = _only_state(service)
            assert state.binding.generation == 1
            first_key = state.binding.key
            # Phase two: the loop collapses; every response must stay
            # correct while the detector notices and swaps underneath.
            expected = run_function(prepare(build_while_loop()), [2, 3, 0])
            for _ in range(10):
                response = service.handle(_loop_request(loop_source, 0))
                assert response.status == "ok"
                assert response.observable() == expected.observable()
            assert service.adapt.drain(timeout=30.0)
            counters = service.metrics.to_dict()["counters"]
            assert counters["drift_events"] >= 1
            assert counters["hot_swaps"] >= 1
            binding = state.binding
            assert binding.generation >= 2
            assert binding.key != first_key  # new extensional address
            assert state.previous is not None  # rollback target retained
            assert state.previous.key == first_key
            # The swapped artifact still answers exactly like the
            # reference interpreter.
            after = service.handle(_loop_request(loop_source, 0))
            assert after.served_by == "memory"
            assert after.observable() == expected.observable()

    def test_swapped_artifact_matches_a_from_scratch_build(self, loop_source):
        with _adaptive_service(
            warmup=1, threshold=0.2, min_samples=4
        ) as service:
            service.handle(_loop_request(loop_source, 12))
            assert service.adapt.drain(timeout=30.0)
            for _ in range(10):
                service.handle(_loop_request(loop_source, 0))
            assert service.adapt.drain(timeout=30.0)
            state = _only_state(service)
            binding = state.binding
            assert binding.generation >= 2
            # Rebuild cold under the exact profile the swap recorded:
            # same content address, bit-identical answers.
            fresh = build_artifact(
                state.prepared, state.config, key=binding.key,
                engine=state.engine, profile=binding.profile,
            )
            assert not fresh.degraded
            assert fresh.key == binding.key
            from repro.serve.server import execute_artifact
            for n in (0, 6, 12):
                args = (2, 3, n)
                swapped = execute_artifact(binding.artifact, args, 2_000_000)
                rebuilt = execute_artifact(fresh, args, 2_000_000)
                assert swapped.observable() == rebuilt.observable()
                assert swapped.dynamic_cost == rebuilt.dynamic_cost
                assert swapped.steps == rebuilt.steps
            served = service.handle(_loop_request(loop_source, 0))
            assert served.key == binding.key

    def test_stationary_traffic_never_swaps(self, loop_source):
        with _adaptive_service(
            warmup=1, threshold=0.05, min_samples=2
        ) as service:
            service.handle(_loop_request(loop_source, 8))
            assert service.adapt.drain(timeout=30.0)
            for _ in range(12):
                assert service.handle(
                    _loop_request(loop_source, 8)
                ).status == "ok"
            assert service.adapt.drain(timeout=30.0)
            counters = service.metrics.to_dict()["counters"]
            assert counters["drift_events"] == 0
            assert counters["hot_swaps"] == 0
            assert _only_state(service).binding.generation == 1


class TestHotSwapAtomicity:
    def test_concurrent_requests_racing_swaps_stay_correct(self, loop_source):
        """Hammer handle() from several threads while bindings are
        swapped under them: every response is ok and bit-identical to
        the reference, and every served key is one of the two published
        bindings — never a torn state."""
        with _adaptive_service(warmup=1, min_samples=10**6) as service:
            service.handle(_loop_request(loop_source, 6))
            assert service.adapt.drain(timeout=30.0)
            state = _only_state(service)
            manager = service.adapt
            # Two alternative artifacts compiled under different phases.
            profiles = []
            for n in (6, 0):
                result = run_function(state.prepared, [2, 3, n])
                profiles.append(result.profile)
            alternates = []
            for profile in profiles:
                key = artifact_key(
                    state.prepared, state.config,
                    engine=state.engine, profile=profile,
                )
                alternates.append((key, build_artifact(
                    state.prepared, state.config, key=key,
                    engine=state.engine, profile=profile,
                ), profile))
            valid_keys = {key for key, _, _ in alternates}
            expected = run_function(
                prepare(build_while_loop()), [2, 3, 6]
            ).observable()

            failures: list = []
            stop = threading.Event()

            def hammer() -> None:
                request = _loop_request(loop_source, 6)
                while not stop.is_set():
                    response = service.handle(request)
                    if (
                        response.status != "ok"
                        or response.observable() != expected
                    ):
                        failures.append(response)

            threads = [threading.Thread(target=hammer) for _ in range(4)]
            for thread in threads:
                thread.start()
            swaps_before = service.metrics.get("hot_swaps")
            try:
                for i in range(60):
                    key, artifact, profile = alternates[i % 2]
                    manager._bind(
                        state, key, artifact, profile, baseline={},
                        promotion=False,
                    )
            finally:
                stop.set()
                for thread in threads:
                    thread.join(timeout=30.0)
            assert not failures
            assert service.metrics.get("hot_swaps") - swaps_before == 60
            assert state.binding.key in valid_keys
            # The swapped-in program keeps feeding the live profile.
            samples_before = state.live.samples
            assert service.handle(_loop_request(loop_source, 6)).status == "ok"
            assert state.live.samples == samples_before + 1


class TestOperatorVerbs:
    def _promoted_service(self, loop_source) -> CompileService:
        service = _adaptive_service(warmup=1, threshold=0.2, min_samples=4)
        service.handle(_loop_request(loop_source, 12))
        assert service.adapt.drain(timeout=30.0)
        for _ in range(10):
            service.handle(_loop_request(loop_source, 0))
        assert service.adapt.drain(timeout=30.0)
        return service

    def test_rollback_restores_the_previous_binding(self, loop_source):
        with self._promoted_service(loop_source) as service:
            state = _only_state(service)
            swapped_key = state.binding.key
            previous_key = state.previous.key
            assert service.adapt.rollback(state.skey)
            assert state.binding.key == previous_key
            assert state.previous.key == swapped_key  # roll forward works
            assert service.metrics.get("rollbacks") == 1
            # Still serving, still correct.
            expected = run_function(prepare(build_while_loop()), [2, 3, 0])
            response = service.handle(_loop_request(loop_source, 0))
            assert response.status == "ok"
            assert response.observable() == expected.observable()

    def test_rollback_without_history_is_a_noop(self, loop_source):
        with _adaptive_service(warmup=1) as service:
            service.handle(_loop_request(loop_source, 8))
            assert service.adapt.drain(timeout=30.0)
            state = _only_state(service)
            assert not service.adapt.rollback(state.skey)
            assert not service.adapt.rollback("no-such-key")
            assert service.metrics.get("rollbacks") == 0

    def test_demote_returns_the_key_to_the_interpreter(self, loop_source):
        with self._promoted_service(loop_source) as service:
            state = _only_state(service)
            assert service.adapt.demote(state.skey)
            assert state.binding is None
            assert state.hits == 0
            assert service.metrics.get("tier_demotions") == 1
            response = service.handle(_loop_request(loop_source, 0))
            assert response.status == "ok"
            assert response.served_by == "interp"
            assert not service.adapt.demote("no-such-key")

    def test_describe_reports_tier_and_generation(self, loop_source):
        with self._promoted_service(loop_source) as service:
            (row,) = service.adapt.describe()
            assert row["variant"] == "mc-ssapre"
            assert row["tier"] == "compiled"
            assert row["generation"] >= 2
            assert row["structural_key"] == _only_state(service).skey
