"""CompileService: single-flight, timeout, degradation, error paths."""

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

import repro.serve.server as server_module
from repro.pipeline import prepare
from repro.profiles.interp import run_function
from repro.serve.server import (
    CompileRequest,
    CompileService,
    build_artifact,
)
from repro.serve.store import Artifact

from tests.conftest import build_diamond


def _wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return False


class _GatedBuild:
    """An injectable build that blocks until the test releases it."""

    def __init__(self):
        self.release = threading.Event()
        self.calls = 0
        self._lock = threading.Lock()

    def __call__(self, prepared, config, *, key, engine="compiled",
                 train_args=None, max_steps=2_000_000):
        with self._lock:
            self.calls += 1
        assert self.release.wait(timeout=10.0), "test never released build"
        return Artifact(
            key=key, variant=config.variant, engine=engine, func=prepared
        )


class TestBasicServing:
    def test_compile_then_memory_hit(self, diamond_source):
        with CompileService() as service:
            request = CompileRequest(
                source=diamond_source, args=(4, 5, 1), variant="ssapre"
            )
            first = service.handle(request)
            second = service.handle(request)
        assert first.status == second.status == "ok"
        assert first.served_by == "compile"
        assert second.served_by == "memory"
        assert first.key == second.key
        assert first.observable() == second.observable()
        assert first.dynamic_cost == second.dynamic_cost
        assert service.metrics.get("compiles") == 1
        assert service.metrics.get("hits_memory") == 1

    def test_answer_matches_reference_interpreter(self, diamond_source):
        with CompileService() as service:
            response = service.handle(CompileRequest(
                source=diamond_source, args=(4, 5, 0), variant="ssapre"
            ))
        expected = run_function(prepare(build_diamond()), [4, 5, 0])
        assert response.status == "ok"
        assert response.observable() == expected.observable()

    def test_profile_guided_variant_trains_from_train_args(
        self, loop_source
    ):
        with CompileService() as service:
            response = service.handle(CompileRequest(
                source=loop_source, args=(2, 3, 5), variant="mc-ssapre",
                train_args=(2, 3, 4),
            ))
        assert response.status == "ok"
        assert not response.degraded

    def test_profile_guided_without_train_args_is_an_error(
        self, loop_source
    ):
        with CompileService() as service:
            response = service.handle(CompileRequest(
                source=loop_source, args=(2, 3, 5), variant="mc-ssapre"
            ))
        assert response.status == "error"
        assert "train_args" in response.error
        assert service.metrics.get("errors") == 1

    def test_solver_on_the_wire(self, loop_source):
        request = CompileRequest.from_dict({
            "source": loop_source, "args": [2, 3, 5],
            "variant": "mc-ssapre", "train_args": [2, 3, 4],
            "solver": "lospre",
        })
        assert request.solver == "lospre"
        with CompileService() as service:
            response = service.handle(request)
        assert response.status == "ok"
        assert not response.degraded

    def test_auto_request_shares_the_resolved_cache_entry(
        self, loop_source
    ):
        # The loop CFG is accepted by the shape classifier, so auto
        # resolves to lospre and the second request must be a cache hit
        # on the same key, not a second compile.
        with CompileService() as service:
            forced = service.handle(CompileRequest(
                source=loop_source, args=(2, 3, 5), variant="mc-ssapre",
                train_args=(2, 3, 4), solver="lospre",
            ))
            auto = service.handle(CompileRequest(
                source=loop_source, args=(2, 3, 5), variant="mc-ssapre",
                train_args=(2, 3, 4), solver="auto",
            ))
            assert service.metrics.get("compiles") == 1
        assert forced.key == auto.key
        assert auto.served_by == "memory"
        assert auto.observable() == forced.observable()

    def test_unknown_solver_is_a_request_error(self, loop_source):
        with CompileService() as service:
            response = service.handle(CompileRequest(
                source=loop_source, args=(2, 3, 5), variant="mc-ssapre",
                train_args=(2, 3, 4), solver="simplex",
            ))
        assert response.status == "error"
        assert "solver" in response.error


class TestSingleFlight:
    def test_concurrent_identical_requests_compile_once(
        self, diamond_source
    ):
        clients = 6
        build = _GatedBuild()
        service = CompileService(build=build, max_workers=clients)
        request = CompileRequest(
            source=diamond_source, args=(1, 2, 1), variant="ssapre"
        )
        with service, ThreadPoolExecutor(max_workers=clients) as pool:
            futures = [
                pool.submit(service.handle, request) for _ in range(clients)
            ]
            # Deterministic rendezvous: every non-leader is provably
            # waiting on the in-flight build before it is allowed to end.
            assert _wait_until(
                lambda: service.metrics.get("coalesced") == clients - 1
            )
            build.release.set()
            responses = [f.result() for f in futures]
        assert build.calls == 1
        assert service.metrics.get("compiles") == 1
        assert all(r.status == "ok" for r in responses)
        assert sorted(r.served_by for r in responses) == (
            ["coalesced"] * (clients - 1) + ["compile"]
        )
        assert len({r.key for r in responses}) == 1

    def test_different_keys_do_not_coalesce(
        self, diamond_source, loop_source
    ):
        with CompileService() as service:
            service.handle(CompileRequest(
                source=diamond_source, args=(1, 2, 1), variant="ssapre"
            ))
            service.handle(CompileRequest(
                source=loop_source, args=(1, 2, 3), variant="ssapre"
            ))
        assert service.metrics.get("compiles") == 2
        assert service.metrics.get("coalesced") == 0


class TestTimeout:
    def test_slow_build_times_out_without_poisoning_the_cache(
        self, diamond_source
    ):
        build = _GatedBuild()
        service = CompileService(build=build, timeout_s=0.1)
        request = CompileRequest(
            source=diamond_source, args=(1, 2, 1), variant="ssapre"
        )
        with service:
            response = service.handle(request)
            assert response.status == "timeout"
            assert service.metrics.get("timeouts") == 1
            # The abandoned build completes in the background and lands
            # in the cache; the retry is a plain hit.
            build.release.set()
            assert _wait_until(
                lambda: service.store.get(response.key)[0] is not None
            )
            retry = service.handle(request)
        assert retry.status == "ok"
        assert retry.served_by == "memory"


class TestDegradation:
    def test_compile_failure_degrades_to_reference_interpreter(
        self, diamond_source, monkeypatch
    ):
        def broken_compile(*args, **kwargs):
            raise RuntimeError("optimiser exploded")

        monkeypatch.setattr(server_module, "compile_variant", broken_compile)
        with CompileService() as service:
            response = service.handle(CompileRequest(
                source=diamond_source, args=(4, 5, 1), variant="ssapre"
            ))
        expected = run_function(prepare(build_diamond()), [4, 5, 1])
        assert response.status == "ok"
        assert response.degraded is True
        assert response.observable() == expected.observable()
        assert service.metrics.get("compile_failures") == 1
        assert service.metrics.get("degraded") == 1

    def test_build_artifact_records_the_reason(self, monkeypatch):
        monkeypatch.setattr(
            server_module, "compile_variant",
            lambda *a, **k: (_ for _ in ()).throw(ValueError("boom")),
        )
        prepared = prepare(build_diamond())
        artifact = build_artifact(
            prepared, server_module.PipelineConfig(variant="ssapre"),
            key="k",
        )
        assert artifact.degraded is True
        assert "boom" in artifact.degraded_reason
        assert artifact.program is None


class TestErrorPaths:
    def test_unparsable_source(self):
        with CompileService() as service:
            response = service.handle(CompileRequest(
                source="this is not a program", args=()
            ))
        assert response.status == "error"
        assert "ParseError" in response.error
        assert service.metrics.get("errors") == 1

    def test_unknown_variant(self, diamond_source):
        with CompileService() as service:
            response = service.handle(CompileRequest(
                source=diamond_source, variant="nonsense"
            ))
        assert response.status == "error"
        assert "unknown variant" in response.error

    def test_wrong_arity_is_a_run_error(self, diamond_source):
        with CompileService() as service:
            response = service.handle(CompileRequest(
                source=diamond_source, args=(1,), variant="ssapre"
            ))
        assert response.status == "error"
        assert "InterpreterError" in response.error
        # The compile itself succeeded and is cached for later requests.
        assert service.metrics.get("compiles") == 1


class TestRequestParsing:
    def test_from_dict_round_trip(self, diamond_source):
        request = CompileRequest.from_dict({
            "source": diamond_source,
            "args": [1, 2, 3],
            "variant": "ssapre",
            "train_args": [4, 5, 6],
        })
        assert request.args == (1, 2, 3)
        assert request.train_args == (4, 5, 6)

    def test_from_dict_rejects_unknown_fields(self, diamond_source):
        # "profiling" selected a counting mode that no longer exists.
        for field in ("bogus", "profiling"):
            with pytest.raises(ValueError, match="unknown request fields"):
                CompileRequest.from_dict({
                    "source": diamond_source, field: "probes"
                })

    def test_from_dict_requires_source(self):
        with pytest.raises(ValueError, match="missing 'source'"):
            CompileRequest.from_dict({"args": [1]})


class TestPlanCache:
    """The bounded plan cache (cluster workers): memoised
    parse/prepare/key, off by default, LRU-bounded when on."""

    def test_disabled_by_default(self, diamond_source):
        with CompileService() as service:
            request = CompileRequest(
                source=diamond_source, args=(4, 5, 1), variant="ssapre"
            )
            service.handle(request)
            service.handle(request)
        assert service.metrics.get("plan_hits") == 0
        assert len(service._plans) == 0

    def test_repeat_requests_hit_the_plan_cache(self, diamond_source):
        with CompileService(plan_cache=8) as service:
            request = CompileRequest(
                source=diamond_source, args=(4, 5, 1), variant="ssapre"
            )
            cold = service.handle(request)
            warm = service.handle(request)
            third = service.handle(request)
        assert cold.status == warm.status == third.status == "ok"
        assert service.metrics.get("plan_hits") == 2
        # Memoising the plan must not change a single answer bit.
        assert cold.key == warm.key == third.key
        assert cold.observable() == warm.observable() == third.observable()
        assert cold.dynamic_cost == warm.dynamic_cost

    def test_distinct_configs_get_distinct_plans(self, diamond_source):
        with CompileService(plan_cache=8) as service:
            a = service.handle(CompileRequest(
                source=diamond_source, args=(4, 5, 1), variant="ssapre"
            ))
            b = service.handle(CompileRequest(
                source=diamond_source, args=(4, 5, 1), variant="ssapre",
                fold_constants=True,
            ))
        assert a.status == b.status == "ok"
        assert a.key != b.key
        assert service.metrics.get("plan_hits") == 0
        assert len(service._plans) == 2

    def test_lru_bound_holds(self, diamond_source, loop_source):
        with CompileService(plan_cache=1) as service:
            r1 = CompileRequest(
                source=diamond_source, args=(4, 5, 1), variant="ssapre"
            )
            r2 = CompileRequest(
                source=loop_source, args=(2, 3, 5), variant="ssapre"
            )
            for request in (r1, r2, r1, r2):
                assert service.handle(request).status == "ok"
            assert len(service._plans) == 1
        # Alternating two programs through a one-entry cache: every
        # lookup after the first for each program evicts the other, so
        # nothing ever hits.
        assert service.metrics.get("plan_hits") == 0

    def test_plan_hit_serves_from_memory_tier(self, diamond_source):
        with CompileService(plan_cache=8) as service:
            request = CompileRequest(
                source=diamond_source, args=(4, 5, 1), variant="ssapre"
            )
            first = service.handle(request)
            second = service.handle(request)
        assert first.served_by == "compile"
        assert second.served_by == "memory"
