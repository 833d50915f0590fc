"""The layer hooks ``perfbench/spans.py`` patches from outside ``src/``.

The traced benchmark run wraps module globals of :mod:`repro.serve.server`,
:mod:`repro.pipeline` and :mod:`repro.profiles.compiled` by name.  A
renamed global makes entering the trace fail, and a global the request
path stops calling through makes its per-layer counts read 0.  Both
show here rather than only in a traced benchmark run.
"""

import importlib.util
from pathlib import Path

import repro.pipeline as pipeline
import repro.profiles.compiled as compiled
import repro.serve.server as server
from repro.serve.server import CompileRequest, CompileService

#: Every (owner, attribute) ``Tracer.layers()`` patches.
PATCHED = (
    (server, "parse_function"),
    (server, "prepare"),
    (server, "artifact_key"),
    (server, "make_runner"),
    (server, "compile_function"),
    (server, "execute_artifact"),
    (pipeline, "prepare"),
    (pipeline, "make_runner"),
    (pipeline, "compile_func"),
    (compiled, "compile_function"),
    (compiled.CompiledProgram, "run"),
)


def _spans():
    path = Path(__file__).parents[2] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_layers_patch_and_restore_every_hook():
    before = [getattr(owner, name) for owner, name in PATCHED]
    with _spans().Tracer().layers():
        during = [getattr(owner, name) for owner, name in PATCHED]
    after = [getattr(owner, name) for owner, name in PATCHED]
    for (owner, name), old, new in zip(PATCHED, before, during):
        assert new is not old, f"{owner.__name__}.{name} was not patched"
    assert all(a is b for a, b in zip(after, before))


def test_a_cold_request_reaches_every_request_layer(loop_source):
    tracer = _spans().Tracer()
    request = CompileRequest(
        source=loop_source, args=(2, 3, 5), variant="mc-ssapre",
        train_args=(2, 3, 4),
    )
    with tracer.layers(), CompileService() as service:
        response = service.handle(request)
    assert response.status == "ok", response.error
    for layer in (
        "lang.parse", "pipeline.prepare", "serve.keys.artifact_key",
        "profiles.train", "passes.compile", "profiles.compiled.lower",
        "profiles.compiled.run", "serve.server.execute",
    ):
        assert tracer.calls[layer] >= 1, layer
