"""CompileService: single-flight, timeout, degradation, error paths."""

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

import repro.serve.server as server_module
from repro.ir.printer import format_function
from repro.lang.parser import parse_function
from repro.pipeline import prepare
from repro.profiles.interp import run_function
from repro.serve.adapt.manager import AdaptConfig
from repro.serve.keys import structural_key
from repro.serve.server import (
    PLAN_CACHE_SIZE,
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

    def __call__(self, prepared, config, *, key, train_args=None,
                 max_steps=2_000_000):
        with self._lock:
            self.calls += 1
        assert self.release.wait(timeout=10.0), "test never released build"
        return Artifact(key=key, variant=config.variant, func=prepared)


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

    def test_profile_free_requests_ignore_train_args(self, diamond_source):
        # ssapre never reads a profile, so two requests that differ only
        # in train_args are one artifact: one compile, one key.
        with CompileService() as service:
            first, second = (
                service.handle(CompileRequest(
                    source=diamond_source, args=(4, 5, 1), variant="ssapre",
                    train_args=train_args,
                ))
                for train_args in ((1, 2, 3), (7, 8, 9))
            )
            assert service.metrics.get("compiles") == 1
        assert first.key == second.key
        assert second.served_by == "memory"
        assert first.observable() == second.observable()


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
        # "profiling" selected a counting mode that no longer exists;
        # "engine" and "solver" selected nothing a served answer shows.
        for field in ("bogus", "profiling", "engine", "solver"):
            with pytest.raises(ValueError, match="unknown request fields"):
                CompileRequest.from_dict({
                    "source": diamond_source, field: "probes"
                })

    def test_from_dict_requires_source(self):
        with pytest.raises(ValueError, match="missing 'source'"):
            CompileRequest.from_dict({"args": [1]})

    @pytest.mark.parametrize("field, value", [
        ("fold_constants", "yes"),
        ("fold_constants", 1),
        ("cleanup", "yes"),
        ("cleanup", 0),
        ("rounds", 2.0),
        ("rounds", True),
        ("rounds", "2"),
        ("max_steps", 1e6),
        ("max_steps", False),
        ("variant", 3),
        ("args", [1, 2.5]),
        ("args", [1, True]),
        ("args", 5),
        ("args", "123"),
        ("train_args", ["4"]),
        ("train_args", [4.0, 5, 6]),
    ])
    def test_from_dict_rejects_wrong_types(self, diamond_source, field, value):
        # A wrong-typed value must fail at the wire, naming its field,
        # not build equal code under a second key or fail late.
        with pytest.raises(ValueError, match=repr(field)):
            CompileRequest.from_dict({"source": diamond_source, field: value})

    def test_from_dict_accepts_well_typed_values(self, diamond_source):
        request = CompileRequest.from_dict({
            "source": diamond_source, "args": [], "variant": "ssapre",
            "train_args": None, "fold_constants": True, "cleanup": False,
            "rounds": 2, "max_steps": 1000,
        })
        assert request.config().rounds == 2
        assert request.args == () and request.train_args is None


class TestPlanCache:
    """The one plan path: every service memoises parse/prepare/key per
    (source, config, train_args), LRU-bounded at
    :data:`PLAN_CACHE_SIZE`."""

    def test_repeat_requests_hit_cached_plans(self, diamond_source):
        with CompileService() as service:
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
        with CompileService() as service:
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

    def test_lru_bound_holds(self, diamond_source):
        # Renamed copies of one cheap, unprofiled program make distinct
        # plans (sharing one key: the name is not key material).
        def request(i):
            return CompileRequest(
                source=diamond_source.replace("diamond", f"diamond{i}"),
                args=(4, 5, 1), variant="none",
            )

        with CompileService() as service:
            for i in range(PLAN_CACHE_SIZE + 1):
                assert service.handle(request(i)).status == "ok"
            assert len(service._plans) == PLAN_CACHE_SIZE
            assert service.metrics.get("plan_hits") == 0
            # The newest plan stays; the oldest was evicted.
            service.handle(request(PLAN_CACHE_SIZE))
            assert service.metrics.get("plan_hits") == 1
            service.handle(request(0))
            assert service.metrics.get("plan_hits") == 1
            assert len(service._plans) == PLAN_CACHE_SIZE

    def test_plan_hit_serves_from_memory_tier(self, diamond_source):
        with CompileService() as service:
            request = CompileRequest(
                source=diamond_source, args=(4, 5, 1), variant="ssapre"
            )
            first = service.handle(request)
            second = service.handle(request)
        assert first.served_by == "compile"
        assert second.served_by == "memory"

    def test_shared_prepared_function_is_never_mutated(self, loop_source):
        # A one-entry artifact LRU and two alternating plans of one
        # source: every request misses the store and compiles afresh from
        # its plan's cached prepared function.
        requests = [
            CompileRequest(
                source=loop_source, args=(2, 3, 5), variant="mc-ssapre",
                train_args=(2, 3, 7),
            ),
            CompileRequest(
                source=loop_source, args=(2, 3, 5), variant="ssapre",
                fold_constants=True, cleanup=True,
            ),
        ]
        expected = format_function(prepare(parse_function(loop_source)))
        with CompileService() as service:
            service.store.memory.max_entries = 1
            answers = [service.handle(requests[i % 2]) for i in range(100)]
            plans = [prepared for prepared, _config, _key in service._plans.values()]
        assert service.metrics.get("compiles") == 100
        assert service.metrics.get("plan_hits") == 98
        assert len(plans) == 2
        for prepared in plans:
            assert format_function(prepared) == expected
        for i, answer in enumerate(answers):
            assert answer.status == "ok"
            assert _answer(answer) == _answer(answers[i % 2])

    def test_concurrent_configs_match_fresh_services(self, loop_source):
        configs = [
            {"variant": "mc-ssapre", "train_args": (2, 3, 7)},
            {"variant": "mc-ssapre", "train_args": (2, 3, 7), "rounds": 2},
            {"variant": "ssapre-sp", "cleanup": True},
            {"variant": "lcm"},
        ]
        requests = [
            CompileRequest(source=loop_source, args=(2, 3, 5), **config)
            for config in configs
        ]
        expected = []
        for request in requests:
            with CompileService() as fresh:
                expected.append(_answer(fresh.handle(request)))
        schedule = [i % len(requests) for i in range(40)]
        barrier = threading.Barrier(2)

        with CompileService() as service:
            def client(offset):
                barrier.wait(timeout=10.0)
                return [
                    (i, _answer(service.handle(requests[i])))
                    for i in schedule[offset::2]
                ]

            with ThreadPoolExecutor(max_workers=2) as pool:
                futures = [pool.submit(client, offset) for offset in (0, 1)]
                results = [row for f in futures for row in f.result()]
        assert len(results) == len(schedule)
        for i, answer in results:
            assert answer == expected[i]
        assert len(service._plans) == len(requests)

    def test_adaptive_service_caches_plans(self, loop_source):
        request = CompileRequest(
            source=loop_source, args=(2, 3, 5), variant="mc-ssapre",
            train_args=(2, 3, 5),
        )
        with CompileService(adapt=AdaptConfig(warmup=100)) as service:
            answers = [service.handle(request) for _ in range(3)]
            (skey,) = service.adapt._states
        assert service.metrics.get("plan_hits") == 2
        assert [a.served_by for a in answers] == ["interp"] * 3
        # The plan's key is the structural key when adapt is on.
        prepared = prepare(parse_function(loop_source))
        assert skey == structural_key(prepared, request.config())
        assert {a.key for a in answers} == {skey}


def _answer(response):
    return (
        response.status,
        response.key,
        response.observable(),
        response.dynamic_cost,
        response.steps,
    )
