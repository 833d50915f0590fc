"""Command-line entry: ``python -m repro.serve``.

Two subcommands:

``serve``
    Run a :class:`~repro.serve.server.CompileService` over a JSON-lines
    protocol: one request object per input line, one response object per
    output line (schema in ``docs/SERVING.md``).  By default the
    transport is stdin/stdout (pipe-friendly, trivially scriptable);
    ``--port`` switches to a threaded TCP server speaking the same
    line protocol, one connection per client.  ``--cluster N`` serves
    through the sharded cluster instead (docs/SERVING.md, "Cluster"):
    N worker processes behind the asyncio front end.

``load``
    Build the deterministic load-generator workload
    (:mod:`repro.serve.loadgen`), drive it through an in-process service
    with ``--jobs`` client threads, and gate on the results: non-zero
    exit when any answer mismatched the reference interpreter (with
    ``--adapt``, the post-swap replay included), any request errored,
    the hit rate fell below ``--min-hit-rate``, or, with ``--adapt``,
    the background recompiles did not drain.  This is the CI serving
    smoke job.  The cluster and adaptation scenarios are gated by
    ``python -m repro.perf --only serving``.

``--metrics-out PATH`` keeps PATH a current metrics snapshot: rewritten
every :data:`METRICS_EVERY_S` seconds while the command runs, and once
more when it exits.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import threading
from pathlib import Path
from typing import Callable

from repro.serve.adapt import AdaptConfig
from repro.serve.adapt.drift import DEFAULT_MIN_SAMPLES, DEFAULT_THRESHOLD
from repro.serve.adapt.tier import DEFAULT_WARMUP
from repro.serve.loadgen import (
    DEFAULT_VARIANTS,
    Workload,
    WorkloadSpec,
    build_workload,
    run_load,
)
from repro.serve.server import (
    DEFAULT_TIMEOUT_S,
    CompileRequest,
    CompileService,
)
from repro.serve.store import ArtifactStore


def _make_service(args: argparse.Namespace) -> CompileService:
    if args.cache_dir:
        store = ArtifactStore.with_disk(
            args.cache_dir, max_entries=args.max_entries
        )
    else:
        store = ArtifactStore()
        store.memory.max_entries = args.max_entries
    adapt = None
    if args.adapt:
        adapt = AdaptConfig(
            warmup=args.warmup,
            threshold=args.drift_threshold,
            min_samples=args.min_samples,
        )
    return CompileService(
        store,
        max_workers=args.workers,
        timeout_s=args.timeout,
        adapt=adapt,
        lock_dir=getattr(args, "lock_dir", None),
    )


#: Seconds between the snapshots ``--metrics-out`` is rewritten with.
METRICS_EVERY_S = 1.0


class _MetricsDumper:
    """Keeps ``--metrics-out`` current while a command runs.

    Inside the ``with`` block a background thread writes ``snapshot()``
    to *path* every :data:`METRICS_EVERY_S` seconds; leaving the block
    writes the final snapshot.  Every write is a full JSON document put
    in place by temp file + :func:`os.replace`, so a reader polling the
    path never sees a torn write.  With no path it does nothing.
    """

    def __init__(self, path: str | None, snapshot: Callable[[], dict]) -> None:
        self.path = Path(path) if path else None
        self.snapshot = snapshot
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="repro-metrics-out", daemon=True
        )

    def __enter__(self) -> "_MetricsDumper":
        if self.path is not None:
            self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        if self.path is not None:
            self._stop.set()
            self._thread.join(timeout=5.0)
            self.dump()  # the final snapshot, so short runs still leave one

    def dump(self) -> None:
        assert self.path is not None
        payload = json.dumps(self.snapshot(), indent=2) + "\n"
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            dir=str(self.path.parent), prefix=f".{self.path.name}.", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(payload)
            os.replace(tmp_name, self.path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    def _run(self) -> None:
        while not self._stop.wait(METRICS_EVERY_S):
            self.dump()


def _handle_line(service: CompileService, line: str) -> dict:
    """One protocol exchange: JSON request line in, response dict out."""
    try:
        data = json.loads(line)
    except json.JSONDecodeError as exc:
        return {"status": "error", "error": f"bad JSON: {exc}"}
    if isinstance(data, dict) and data.get("cmd") == "metrics":
        return service.metrics.to_dict()
    if isinstance(data, dict) and data.get("cmd") == "ping":
        # Liveness probe for the cluster supervisor: cheap, no service
        # state touched, so a wedged compile pool still answers.
        return {"status": "ok", "pong": True}
    try:
        request = CompileRequest.from_dict(data)
    except (TypeError, ValueError) as exc:
        return {"status": "error", "error": str(exc)}
    return service.handle(request).to_dict()


def _serve_stdio(service: CompileService) -> None:
    for line in sys.stdin:
        line = line.strip()
        if not line:
            continue
        print(json.dumps(_handle_line(service, line)), flush=True)


def _serve_tcp(service: CompileService, host: str, port: int) -> None:
    import socketserver

    class Handler(socketserver.StreamRequestHandler):
        def handle(self) -> None:
            for raw in self.rfile:
                line = raw.decode("utf-8", errors="replace").strip()
                if not line:
                    continue
                payload = json.dumps(_handle_line(service, line)) + "\n"
                self.wfile.write(payload.encode())
                self.wfile.flush()

    class Server(socketserver.ThreadingTCPServer):
        allow_reuse_address = True
        daemon_threads = True

    with Server((host, port), Handler) as server:
        actual_port = server.server_address[1]
        print(f"serving on {host}:{actual_port}", file=sys.stderr, flush=True)
        server.serve_forever()


def _serve_cluster(args: argparse.Namespace) -> int:
    from repro.serve.cluster import Cluster

    cluster = Cluster(
        args.cluster,
        cache_dir=args.cache_dir or tempfile.mkdtemp(prefix="repro-cluster-cache-"),
        lock_dir=args.lock_dir or tempfile.mkdtemp(prefix="repro-cluster-locks-"),
        host=args.host,
        port=args.port or 0,
        worker_threads=args.workers,
    ).start()
    try:
        print(
            f"cluster serving on {args.host}:{cluster.port} "
            f"({args.cluster} workers)",
            file=sys.stderr, flush=True,
        )
        with _MetricsDumper(args.metrics_out, cluster.merged_metrics):
            threading.Event().wait()  # serve until interrupted
    except KeyboardInterrupt:
        pass
    finally:
        cluster.stop()
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    if args.cluster:
        return _serve_cluster(args)
    service = _make_service(args)
    try:
        with _MetricsDumper(args.metrics_out, service.metrics.to_dict):
            if args.port is not None:
                _serve_tcp(service, args.host, args.port)
            else:
                _serve_stdio(service)
    except KeyboardInterrupt:
        pass
    finally:
        service.close()
    return 0


#: The adaptation counters the ``load --adapt`` report carries.
_ADAPT_COUNTERS = (
    "live_samples", "tier_interp", "drift_events", "recompiles",
    "hot_swaps", "tier_promotions", "tier_demotions", "rollbacks",
)


def _adaptation(
    service: CompileService, workload: Workload, timeout: float
) -> dict:
    """Let in-flight promotions and recompiles land, then replay the
    pool once: every answer must still match the reference interpreter,
    whichever artifacts the hot swaps left bound."""
    drained = service.adapt.drain(timeout=timeout)
    unique = workload.spec.unique
    mismatches = 0
    for request, expected in zip(
        workload.requests[:unique], workload.expected[:unique]
    ):
        response = service.handle(request)
        if response.status != "ok" or response.observable() != expected:
            mismatches += 1
    counters = service.metrics.to_dict()["counters"]
    return {
        "drained": drained,
        "post_swap_verified": unique,
        "post_swap_mismatches": mismatches,
        **{name: counters[name] for name in _ADAPT_COUNTERS},
        "keys": service.adapt.describe(),
    }


def cmd_load(args: argparse.Namespace) -> int:
    workload = build_workload(WorkloadSpec(
        requests=args.requests,
        unique=args.unique,
        variants=tuple(args.variants.split(",")),
        seed=args.seed,
        rounds=args.rounds,
        drift_at=args.drift_at,
    ))
    service = _make_service(args)
    adaptation: dict | None = None
    try:
        with _MetricsDumper(args.metrics_out, service.metrics.to_dict):
            report, _responses = run_load(service, workload, jobs=args.jobs)
            if service.adapt is not None:
                adaptation = _adaptation(service, workload, args.timeout)
                report.mismatches += adaptation["post_swap_mismatches"]
                report.metrics = service.metrics.to_dict()
    finally:
        service.close()

    payload = report.to_dict()
    if adaptation is not None:
        payload["adaptation"] = adaptation
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(
            f"load: {report.requests} request(s), {report.ok} ok, "
            f"{report.errors} error(s), {report.timeouts} timeout(s), "
            f"{report.degraded} degraded"
        )
        print(
            f"load: hit rate {report.hit_rate:.3f} "
            f"(workload admits {report.expected_hit_rate:.3f}), "
            f"{report.rps:.1f} req/s over {report.wall_s:.3f}s"
        )
        served = ", ".join(
            f"{name}={count}"
            for name, count in sorted(report.served_by.items())
        )
        print(f"load: served_by {served}")
        print(f"load: mismatches {report.mismatches}")
        if adaptation is not None:
            print(
                "load: adaptation promotions="
                f"{adaptation['tier_promotions']} "
                f"drift_events={adaptation['drift_events']} "
                f"hot_swaps={adaptation['hot_swaps']} "
                f"post_swap_mismatches={adaptation['post_swap_mismatches']}"
            )

    failures = []
    if report.mismatches:
        failures.append(f"{report.mismatches} mismatch(es) vs reference")
    if report.errors:
        failures.append(f"{report.errors} error response(s)")
    if report.hit_rate < args.min_hit_rate:
        failures.append(
            f"hit rate {report.hit_rate:.3f} < required {args.min_hit_rate:.3f}"
        )
    if adaptation is not None and not adaptation["drained"]:
        failures.append("background recompiles did not drain")
    if failures:
        print("LOAD GATE FAILURE: " + "; ".join(failures), file=sys.stderr)
        return 1
    return 0


def _add_service_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="enable the on-disk artifact tier rooted at DIR",
    )
    parser.add_argument(
        "--max-entries", type=int, default=256, metavar="N",
        help="in-memory LRU capacity (default 256)",
    )
    parser.add_argument(
        "--workers", type=int, default=4, metavar="N",
        help="compile worker threads (default 4)",
    )
    parser.add_argument(
        "--timeout", type=float, default=DEFAULT_TIMEOUT_S, metavar="S",
        help=f"per-request deadline in seconds (default {DEFAULT_TIMEOUT_S:g})",
    )
    parser.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help=(
            "keep PATH a JSON metrics snapshot: replaced atomically "
            f"every {METRICS_EVERY_S:g}s and at exit"
        ),
    )
    parser.add_argument(
        "--adapt", action="store_true",
        help=(
            "enable the online re-optimisation tier: live profiles, "
            "tiered execution, drift-triggered recompiles + hot swaps"
        ),
    )
    parser.add_argument(
        "--warmup", type=int, default=DEFAULT_WARMUP, metavar="N",
        help=(
            "interpreter runs before a key is promoted to a compiled "
            f"artifact (default {DEFAULT_WARMUP}; needs --adapt)"
        ),
    )
    parser.add_argument(
        "--drift-threshold", type=float, default=DEFAULT_THRESHOLD,
        metavar="X",
        help=(
            "drift score in (0,1] that triggers a recompile "
            f"(default {DEFAULT_THRESHOLD:g}; needs --adapt)"
        ),
    )
    parser.add_argument(
        "--min-samples", type=int, default=DEFAULT_MIN_SAMPLES, metavar="N",
        help=(
            "live runs folded before the drift detector may fire "
            f"(default {DEFAULT_MIN_SAMPLES}; needs --adapt)"
        ),
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description=(
            "Content-addressed compile-and-run service over the PRE "
            "pipeline, plus its load-generator driver."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser(
        "serve", help="serve JSON-lines requests from stdin or a TCP port"
    )
    _add_service_args(serve)
    serve.add_argument(
        "--port", type=int, default=None, metavar="P",
        help="listen on TCP port P instead of stdin (0 = ephemeral)",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", metavar="H",
        help="bind address for --port (default 127.0.0.1)",
    )
    serve.add_argument(
        "--cluster", type=int, default=0, metavar="N",
        help=(
            "serve through the sharded cluster: N worker processes "
            "behind the consistent-hash TCP front end (0 = in-process)"
        ),
    )
    serve.add_argument(
        "--lock-dir", default=None, metavar="DIR",
        help=(
            "enable cross-process single-flight: per-key flock build "
            "locks under DIR (share it, and --cache-dir, across workers)"
        ),
    )
    serve.set_defaults(func=cmd_serve)

    load = sub.add_parser(
        "load", help="run the deterministic serving workload and gate on it"
    )
    _add_service_args(load)
    load.add_argument(
        "--requests", type=int, default=100, metavar="N",
        help="total requests to issue (default 100)",
    )
    load.add_argument(
        "--unique", type=int, default=6, metavar="N",
        help="distinct (program, config) pool size (default 6)",
    )
    load.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="concurrent client threads (default 1)",
    )
    load.add_argument(
        "--variants", default=",".join(DEFAULT_VARIANTS), metavar="V1,V2",
        help=f"variants to cycle over (default {','.join(DEFAULT_VARIANTS)})",
    )
    load.add_argument(
        "--seed", type=int, default=0, metavar="N",
        help="base generator seed (default 0)",
    )
    load.add_argument(
        "--rounds", type=int, default=1, metavar="N",
        help="PRE rounds per compile (default 1)",
    )
    load.add_argument(
        "--min-hit-rate", type=float, default=0.0, metavar="X",
        help="fail unless the final hit rate reaches X (default 0.0)",
    )
    load.add_argument(
        "--drift-at", type=int, default=None, metavar="K",
        help=(
            "phase-shift the workload: requests >= K draw from an "
            "independent input distribution (drives drift end to end)"
        ),
    )
    load.add_argument(
        "--json", action="store_true",
        help="print the load report as JSON instead of a summary",
    )
    load.set_defaults(func=cmd_load)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
