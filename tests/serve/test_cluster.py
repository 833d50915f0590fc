"""The sharded serving cluster, end to end: routing, merged metrics,
cold-key races, worker crash recovery.

One two-worker cluster is shared module-wide (each worker is a real
``python -m repro.serve serve`` process, so spawning is the expensive
part); the crash-recovery test runs last in file order because it
restarts a worker.
"""

import time

import pytest

from repro.pipeline import PipelineConfig, prepare
from repro.lang.parser import parse_function
from repro.profiles.interp import run_function
from repro.serve.cluster import Cluster, race_cold_key
from repro.serve.keys import structural_key
from repro.serve.loadgen import TCPServiceClient
from repro.serve.metrics import METRICS_SCHEMA
from repro.serve.server import CompileRequest

from tests.conftest import build_diamond


@pytest.fixture(scope="module")
def cluster(tmp_path_factory):
    root = tmp_path_factory.mktemp("cluster")
    with Cluster(
        2,
        cache_dir=str(root / "cache"),
        lock_dir=str(root / "locks"),
        health_every=0.2,
    ) as running:
        yield running


@pytest.fixture(scope="module")
def diamond_text():
    from repro.ir.printer import format_function

    return format_function(build_diamond())


def _wait_until(predicate, timeout=15.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.05)
    return False


class TestEndToEnd:
    def test_request_through_frontend_matches_reference(
        self, cluster, diamond_text
    ):
        request = CompileRequest(
            source=diamond_text, args=(4, 5, 1), variant="ssapre"
        )
        with TCPServiceClient(cluster.host, cluster.port) as client:
            response = client.handle(request)
        expected = run_function(prepare(build_diamond()), [4, 5, 1])
        assert response.status == "ok"
        assert not response.degraded
        assert response.observable() == expected.observable()

    def test_repeat_requests_route_to_one_owner(
        self, cluster, diamond_text
    ):
        request = CompileRequest(
            source=diamond_text, args=(4, 5, 0), variant="ssapre"
        )
        with TCPServiceClient(cluster.host, cluster.port) as client:
            before = cluster.merged_metrics()["cluster"]["routed"]
            for _ in range(3):
                assert client.handle(request).status == "ok"
            after = cluster.merged_metrics()["cluster"]["routed"]
        moved = {
            wid: after[wid] - before[wid] for wid in after
        }
        # All three requests land on the key's single ring owner...
        assert sorted(moved.values()) == [0, 3]
        # ...and that owner is the one the ring names.
        prepared = prepare(parse_function(diamond_text))
        key = structural_key(prepared, PipelineConfig(variant="ssapre"))
        owner = cluster.frontend.ring.route(key)
        assert moved[owner] == 3

    def test_frontend_answers_ping(self, cluster):
        with TCPServiceClient(cluster.host, cluster.port) as client:
            answer = client._exchange({"cmd": "ping"})
        assert answer == {"status": "ok", "pong": True, "role": "frontend"}

    def test_merged_metrics_schema_and_topology(self, cluster):
        merged = cluster.merged_metrics()
        assert merged["schema"] == METRICS_SCHEMA
        assert merged["workers"] == 2
        topology = merged["cluster"]
        assert {w["worker_id"] for w in topology["workers"]} == {"w0", "w1"}
        assert topology["ring"]["nodes"] == ["w0", "w1"]
        assert set(topology["routed"]) == {"w0", "w1"}
        assert merged["counters"]["requests"] >= 1

    def test_malformed_request_still_gets_an_error_response(self, cluster):
        with TCPServiceClient(cluster.host, cluster.port) as client:
            answer = client._exchange({"source": "not a program ("})
        assert answer["status"] == "error"


class TestColdKeyRace:
    def test_race_compiles_exactly_once(self, cluster, loop_source):
        before = cluster.merged_metrics()["counters"]
        answers = race_cold_key(
            cluster.worker_ports(),
            CompileRequest(
                source=loop_source, args=(2, 3, 5), variant="mc-ssapre",
                train_args=(2, 3, 5),
            ),
        )
        after = cluster.merged_metrics()["counters"]
        assert len(answers) == 2
        assert all(a.status == "ok" for a in answers)
        assert len({a.observable() for a in answers}) == 1
        assert after["compiles"] - before["compiles"] == 1
        assert after["lock_rehydrates"] - before["lock_rehydrates"] == 1


class TestCrashRecovery:
    def test_killed_worker_is_restarted_and_serves(
        self, cluster, diamond_text
    ):
        victim = cluster.workers[0]
        old_port = victim.port
        victim.kill()  # simulated crash: no cleanup, flock dies with it
        assert _wait_until(
            lambda: victim.alive() and victim.port != old_port
        ), "health loop never restarted the killed worker"
        assert victim.restarts >= 1

        # The cluster serves requests owned by either worker: route one
        # request to each by construction.
        with TCPServiceClient(cluster.host, cluster.port) as client:
            for args in [(4, 5, 1), (9, 2, 0)]:
                response = client.handle(CompileRequest(
                    source=diamond_text, args=args, variant="ssapre"
                ))
                assert response.status == "ok"
        merged = cluster.merged_metrics()
        assert merged["cluster"]["restarts"] >= 1
