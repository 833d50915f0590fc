"""Cluster front-end routing without a live cluster.

The front end routes every request line by the program's *structural*
key.  It must compute the key exactly as the owning worker does — from
the worker's own request parser — or one program's traffic splits over
workers and the per-worker plan cache and adaptation state never warm
up.  :class:`WorkerHandle` spawns nothing until started, so a
:class:`ClusterFrontend` over unstarted handles routes in-process.
"""

import pytest

from repro.ir.printer import format_function
from repro.serve.adapt import AdaptConfig
from repro.serve.cluster.frontend import ClusterFrontend
from repro.serve.cluster.worker import WorkerHandle
from repro.serve.server import CompileRequest, CompileService

from tests.conftest import build_diamond, build_while_loop


def _frontend(tmp_path, workers=3) -> ClusterFrontend:
    handles = [
        WorkerHandle(
            f"w{i}", cache_dir=str(tmp_path / "cache"),
            lock_dir=str(tmp_path / "locks"),
        )
        for i in range(workers)
    ]
    return ClusterFrontend(handles)


def _worker_structural_key(data: dict) -> str:
    """The structural key a worker's service files the request under."""
    with CompileService(adapt=AdaptConfig(warmup=100)) as service:
        response = service.handle(CompileRequest.from_dict(data))
        assert response.status == "ok", response.error
        (row,) = service.adapt.describe()
    return row["structural_key"]


@pytest.fixture
def diamond_text():
    return format_function(build_diamond())


#: Requests that set every non-default config field the wire format has.
NON_DEFAULT = (
    {"variant": "ssapre", "rounds": 3},
    {"variant": "ssapre-sp", "cleanup": True},
    {"variant": "ssapre", "fold_constants": True, "cleanup": True},
    {"variant": "mc-ssapre", "rounds": 2},
    {"variant": "mc-ssapre", "fold_constants": True},
    {"variant": "lcm"},
)


class TestStructuralRouting:
    @pytest.mark.parametrize("fields", NON_DEFAULT, ids=repr)
    def test_route_key_is_the_workers_structural_key(
        self, tmp_path, diamond_text, fields
    ):
        data = {"source": diamond_text, "args": [4, 5, 1],
                "train_args": [4, 5, 1], **fields}
        route = _frontend(tmp_path)._route_key(data)
        assert not route.startswith("raw:")
        assert route == _worker_structural_key(data)

    def test_non_default_fields_route_apart(self, tmp_path, diamond_text):
        frontend = _frontend(tmp_path)
        keys = {
            frontend._route_key({"source": diamond_text, **fields})
            for fields in NON_DEFAULT
        }
        keys.add(frontend._route_key({"source": diamond_text}))
        assert len(keys) == len(NON_DEFAULT) + 1

    def test_inputs_never_change_the_route(self, tmp_path):
        frontend = _frontend(tmp_path)
        source = format_function(build_while_loop())
        routes = {
            frontend._route_key({
                "source": source, "args": [2, 3, n], "train_args": [2, 3, n],
                "max_steps": 1000 * n,
            })
            for n in (1, 5, 9)
        }
        assert len(routes) == 1

    def test_malformed_inputs_do_not_split_a_program(self, tmp_path):
        frontend = _frontend(tmp_path)
        source = format_function(build_while_loop())
        bad = frontend._route_key({"source": source, "train_args": 5})
        good = frontend._route_key({"source": source, "args": [2, 3, 4]})
        assert bad == good and not good.startswith("raw:")


class TestMalformedRouting:
    MALFORMED = (
        {"source": "this is not a program"},
        {"variant": "ssapre"},
        {"source": "x", "variant": "nope"},
        {"source": "x", "bogus": 1},
        [1, 2, 3],
        "just a string",
    )

    @pytest.mark.parametrize("data", MALFORMED, ids=repr)
    def test_raw_route_is_deterministic(self, tmp_path, data):
        first = _frontend(tmp_path)._route_key(data)
        again = _frontend(tmp_path)._route_key(data)
        assert first.startswith("raw:")
        assert first == again

    def test_invalid_config_on_a_valid_program_routes_raw(
        self, tmp_path, diamond_text
    ):
        frontend = _frontend(tmp_path)
        for fields in (
            {"rounds": 0},
            {"variant": "lcm", "rounds": 2},
            {"variant": "ssapre", "solver": "lospre"},
            {"solver": "simplex"},
            # No longer request fields: the worker rejects them, so the
            # front end must route them raw, and alike on every front end.
            {"solver": "mincut"},
            {"engine": "compiled"},
        ):
            data = {"source": diamond_text, **fields}
            with pytest.raises(ValueError):
                CompileRequest.from_dict(data).config()
            route = frontend._route_key(data)
            assert route.startswith("raw:")
            assert route == _frontend(tmp_path)._route_key(data)
