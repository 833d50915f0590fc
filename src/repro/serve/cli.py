"""Command-line entry: ``python -m repro.serve``.

Two subcommands:

``serve``
    Run a :class:`~repro.serve.server.CompileService` over a JSON-lines
    protocol: one request object per input line, one response object per
    output line (schema in ``docs/SERVING.md``).  By default the
    transport is stdin/stdout (pipe-friendly, trivially scriptable);
    ``--port`` switches to a threaded TCP server speaking the same
    line protocol, one connection per client.

``load``
    Build the deterministic load-generator workload
    (:mod:`repro.serve.loadgen`), drive it through an in-process service
    with ``--jobs`` client threads, and gate on the results: non-zero
    exit when any answer mismatched the reference interpreter, any
    request errored, or the hit rate fell below ``--min-hit-rate``.
    This is the CI serving smoke job.

Cluster mode (docs/SERVING.md, "Cluster"): ``serve --cluster N`` runs
the sharded cluster — N worker processes behind the asyncio front end —
instead of an in-process service, and ``load --cluster N`` stands up
that cluster, drives the workload over TCP (closed loop, or open loop
with ``--open-loop --rps R``), and gates on zero mismatches, the
exactly-one-compile-per-cold-key invariant (merged per-worker
``compiles`` == the workload's unique pool), and ``--p99-max``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import threading
from pathlib import Path

from repro.serve.adapt import AdaptConfig
from repro.serve.adapt.drift import DEFAULT_MIN_SAMPLES, DEFAULT_THRESHOLD
from repro.serve.adapt.tier import DEFAULT_WARMUP
from repro.serve.loadgen import (
    DEFAULT_MAX_CONNS,
    DEFAULT_VARIANTS,
    TCPServiceClient,
    WorkloadSpec,
    build_workload,
    run_load,
    run_open_loop,
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
    if getattr(args, "adapt", False):
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
        plan_cache=getattr(args, "plan_cache", 0),
    )


class _MetricsDumper:
    """Background thread writing periodic metrics snapshots to one path.

    Every snapshot is a full, self-consistent JSON document written via
    temp file + :func:`os.replace`, so a reader polling the path can
    never observe a torn write.
    """

    def __init__(
        self, service: CompileService, path: str, interval_s: float
    ) -> None:
        self.service = service
        self.path = Path(path)
        self.interval_s = max(0.05, interval_s)
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="repro-metrics-dump", daemon=True
        )

    def start(self) -> "_MetricsDumper":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)
        self.dump()  # final snapshot, so short runs still leave one

    def dump(self) -> None:
        payload = json.dumps(self.service.metrics.to_dict(), indent=2) + "\n"
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
        while not self._stop.wait(self.interval_s):
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


def _write_metrics(service: CompileService, path: str | None) -> None:
    if path:
        Path(path).write_text(
            json.dumps(service.metrics.to_dict(), indent=2) + "\n"
        )


class _ClusterMetricsProxy:
    """Duck-types the ``service.metrics`` surface the dumper and the
    final-snapshot writer read, backed by the cluster's merged view."""

    def __init__(self, cluster) -> None:
        self.metrics = self
        self._cluster = cluster

    def to_dict(self) -> dict:
        return self._cluster.merged_metrics()


def _start_cluster(args: argparse.Namespace, n_workers: int):
    from repro.serve.cluster import Cluster
    from repro.serve.cluster.frontend import DEFAULT_PLAN_CACHE

    cache_dir = args.cache_dir or tempfile.mkdtemp(prefix="repro-cluster-cache-")
    lock_dir = args.lock_dir or tempfile.mkdtemp(prefix="repro-cluster-locks-")
    return Cluster(
        n_workers,
        cache_dir=cache_dir,
        lock_dir=lock_dir,
        host=getattr(args, "host", "127.0.0.1"),
        port=getattr(args, "port", None) or 0,
        plan_cache=args.plan_cache or DEFAULT_PLAN_CACHE,
        worker_threads=args.workers,
    ).start()


def _serve_cluster(args: argparse.Namespace) -> int:
    cluster = _start_cluster(args, args.cluster)
    dumper = None
    try:
        print(
            f"cluster serving on {args.host}:{cluster.port} "
            f"({args.cluster} workers)",
            file=sys.stderr, flush=True,
        )
        proxy = _ClusterMetricsProxy(cluster)
        if args.metrics_dump:
            dumper = _MetricsDumper(
                proxy, args.metrics_dump, args.metrics_dump_every
            ).start()
        try:
            threading.Event().wait()  # serve until interrupted
        except KeyboardInterrupt:
            pass
        if args.metrics_out:
            Path(args.metrics_out).write_text(
                json.dumps(cluster.merged_metrics(), indent=2) + "\n"
            )
    finally:
        if dumper is not None:
            dumper.stop()
        cluster.stop()
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    if args.cluster:
        return _serve_cluster(args)
    service = _make_service(args)
    dumper = None
    if args.metrics_dump:
        dumper = _MetricsDumper(
            service, args.metrics_dump, args.metrics_dump_every
        ).start()
    try:
        if args.port is not None:
            _serve_tcp(service, args.host, args.port)
        else:
            _serve_stdio(service)
    except KeyboardInterrupt:
        pass
    finally:
        if dumper is not None:
            dumper.stop()
        _write_metrics(service, args.metrics_out)
        service.close()
    return 0


def _post_drift_verification(service, workload) -> tuple[int, int]:
    """Replay the pool once after draining background recompiles.

    Every response must still match the reference interpreter — this is
    the "post-swap answers are bit-identical" check, run against
    whichever artifacts the hot swaps left bound.  Returns
    ``(verified, mismatches)``.
    """
    unique = workload.spec.unique
    verified = mismatches = 0
    for request, expected in zip(
        workload.requests[:unique], workload.expected[:unique]
    ):
        response = service.handle(request)
        verified += 1
        if response.status != "ok" or response.observable() != expected:
            mismatches += 1
    return verified, mismatches


def _load_cluster(args: argparse.Namespace, spec, workload) -> int:
    """Drive the workload against a live cluster and gate on it."""
    from repro.serve.cluster import race_cold_key

    if args.open_loop and not args.rps:
        print("--open-loop requires --rps", file=sys.stderr)
        return 2
    cluster = _start_cluster(args, args.cluster)
    try:
        race = None
        if args.race_check:
            # The cross-process cold-key race: the same cold request
            # fired at every worker port simultaneously (bypassing the
            # ring, which would collapse the race onto one worker).
            # Exactly one compile must land cluster-wide.
            before = cluster.merged_metrics()["counters"]
            first = workload.requests[0]
            answers = race_cold_key(
                cluster.worker_ports(),
                {
                    "source": first.source,
                    "args": list(first.args),
                    "variant": first.variant,
                    "rounds": first.rounds,
                    "train_args": (
                        list(first.train_args)
                        if first.train_args is not None else None
                    ),
                },
            )
            after = cluster.merged_metrics()["counters"]
            observables = {
                (a.get("return_value"), tuple(a.get("output") or ()))
                for a in answers
            }
            race = {
                "clients": len(answers),
                "all_ok": all(a.get("status") == "ok" for a in answers),
                "agreed": len(observables) == 1,
                "compiles": after["compiles"] - before["compiles"],
                "rehydrates": (
                    after["lock_rehydrates"] - before["lock_rehydrates"]
                ),
            }
        if args.warm_pool:
            # Prime every unique key once (the cold compiles) so the
            # measured phase sees steady-state serving; without this an
            # open-loop run charges the whole cold burst's queueing
            # delay to the early requests' CO-free latency.
            with TCPServiceClient(cluster.host, cluster.port) as client:
                for request in workload.requests[:spec.unique]:
                    client.handle(request)
        if args.open_loop:
            report = run_open_loop(
                cluster.host, cluster.port, workload,
                rps=args.rps, seed=args.seed, max_conns=args.max_conns,
                timeout=args.timeout,
            )
        else:
            with TCPServiceClient(cluster.host, cluster.port) as client:
                report, _responses = run_load(client, workload, jobs=args.jobs)
        merged = cluster.merged_metrics()
        if args.metrics_out:
            Path(args.metrics_out).write_text(
                json.dumps(merged, indent=2) + "\n"
            )
    finally:
        cluster.stop()

    payload = report.to_dict()
    payload["cluster"] = merged["cluster"]
    payload["merged_counters"] = merged["counters"]
    if race is not None:
        payload["race"] = race
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        p99 = report.latency.get("p99_s", 0.0)
        rps = getattr(report, "achieved_rps", None) or report.rps
        print(
            f"cluster load: {report.requests} request(s), {report.ok} ok, "
            f"{report.errors} error(s), {report.mismatches} mismatch(es)"
        )
        print(
            f"cluster load: {rps:.1f} req/s, p99 {p99 * 1000:.1f}ms, "
            f"compiles {merged['counters']['compiles']} "
            f"(pool of {spec.unique})"
        )
        if race is not None:
            print(
                f"cluster load: cold race compiles={race['compiles']} "
                f"rehydrates={race['rehydrates']} agreed={race['agreed']}"
            )

    failures = []
    if report.mismatches:
        failures.append(f"{report.mismatches} mismatch(es) vs reference")
    if report.errors:
        failures.append(f"{report.errors} error response(s)")
    if report.timeouts:
        failures.append(f"{report.timeouts} timeout(s)")
    # Exactly one compile per cold key, cluster-wide: ring routing plus
    # cross-process single-flight must never duplicate a build.  The
    # race check adds one extra key compiled outside the pool count
    # only if request[0]'s key was re-raced; it is pool key 0, so the
    # total stays spec.unique.
    compiles = merged["counters"]["compiles"]
    if compiles != spec.unique:
        failures.append(
            f"{compiles} compile(s) across workers for {spec.unique} "
            "unique key(s)"
        )
    if args.p99_max and report.latency.get("p99_s", 0.0) > args.p99_max:
        failures.append(
            f"p99 {report.latency['p99_s']:.4f}s > bound {args.p99_max:g}s"
        )
    if race is not None:
        if not race["all_ok"] or not race["agreed"]:
            failures.append("cold-key race answers disagreed")
        if race["compiles"] != 1:
            failures.append(
                f"cold-key race compiled {race['compiles']} time(s), not 1"
            )
    if failures:
        print("CLUSTER GATE FAILURE: " + "; ".join(failures), file=sys.stderr)
        return 1
    return 0


def cmd_load(args: argparse.Namespace) -> int:
    spec = WorkloadSpec(
        requests=args.requests,
        unique=args.unique,
        variants=tuple(args.variants.split(",")),
        seed=args.seed,
        rounds=args.rounds,
        drift_at=args.drift_at,
    )
    workload = build_workload(spec)
    if args.cluster:
        return _load_cluster(args, spec, workload)
    service = _make_service(args)
    dumper = None
    if args.metrics_dump:
        dumper = _MetricsDumper(
            service, args.metrics_dump, args.metrics_dump_every
        ).start()
    adaptation: dict | None = None
    try:
        report, _responses = run_load(service, workload, jobs=args.jobs)
        if service.adapt is not None:
            # Let in-flight promotions/recompiles land, then prove the
            # swapped-in artifacts still answer exactly like the
            # reference interpreter.
            drained = service.adapt.drain(timeout=args.timeout)
            verified, swap_mismatches = _post_drift_verification(
                service, workload
            )
            report.mismatches += swap_mismatches
            counters = service.metrics.to_dict()["counters"]
            adaptation = {
                "drained": drained,
                "post_swap_verified": verified,
                "post_swap_mismatches": swap_mismatches,
                "live_samples": counters["live_samples"],
                "tier_interp": counters["tier_interp"],
                "drift_events": counters["drift_events"],
                "recompiles": counters["recompiles"],
                "hot_swaps": counters["hot_swaps"],
                "tier_promotions": counters["tier_promotions"],
                "tier_demotions": counters["tier_demotions"],
                "rollbacks": counters["rollbacks"],
                "keys": service.adapt.describe(),
            }
            report.metrics = service.metrics.to_dict()
    finally:
        if dumper is not None:
            dumper.stop()
        _write_metrics(service, args.metrics_out)
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
    if adaptation is not None:
        if not adaptation["drained"]:
            failures.append("background recompiles did not drain")
        if adaptation["hot_swaps"] < args.min_hot_swaps:
            failures.append(
                f"hot swaps {adaptation['hot_swaps']} < required "
                f"{args.min_hot_swaps}"
            )
        if adaptation["tier_promotions"] < args.min_promotions:
            failures.append(
                f"tier promotions {adaptation['tier_promotions']} < required "
                f"{args.min_promotions}"
            )
    elif args.min_hot_swaps or args.min_promotions:
        failures.append("--min-hot-swaps/--min-promotions require --adapt")
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
        "--lock-dir", default=None, metavar="DIR",
        help=(
            "enable cross-process single-flight: per-key flock build "
            "locks under DIR (share it, and --cache-dir, across workers)"
        ),
    )
    parser.add_argument(
        "--plan-cache", type=int, default=0, metavar="N",
        help=(
            "memoise up to N request plans (parsed/prepared/keyed "
            "programs) per service; 0 disables (default)"
        ),
    )
    parser.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write the final metrics snapshot as JSON to PATH",
    )
    parser.add_argument(
        "--metrics-dump", default=None, metavar="PATH",
        help=(
            "periodically write full metrics snapshots to PATH "
            "(atomic replace; see --metrics-dump-every)"
        ),
    )
    parser.add_argument(
        "--metrics-dump-every", type=float, default=5.0, metavar="S",
        help="interval between --metrics-dump snapshots (default 5s)",
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
        "--min-hot-swaps", type=int, default=0, metavar="N",
        help="fail unless >= N drift-triggered hot swaps happened (needs --adapt)",
    )
    load.add_argument(
        "--min-promotions", type=int, default=0, metavar="N",
        help="fail unless >= N interp->compiled promotions happened (needs --adapt)",
    )
    load.add_argument(
        "--json", action="store_true",
        help="print the load report as JSON instead of a summary",
    )
    load.add_argument(
        "--cluster", type=int, default=0, metavar="N",
        help=(
            "drive the workload against a live N-worker cluster over "
            "TCP instead of an in-process service"
        ),
    )
    load.add_argument(
        "--open-loop", action="store_true",
        help=(
            "open-loop mode: arrivals follow a seeded Poisson schedule "
            "at --rps, independent of server speed (needs --cluster)"
        ),
    )
    load.add_argument(
        "--rps", type=float, default=0.0, metavar="R",
        help="offered request rate for --open-loop",
    )
    load.add_argument(
        "--p99-max", type=float, default=0.0, metavar="S",
        help="fail if p99 latency exceeds S seconds (0 = no gate)",
    )
    load.add_argument(
        "--max-conns", type=int, default=DEFAULT_MAX_CONNS, metavar="N",
        help=(
            "open-loop connection-pool size "
            f"(default {DEFAULT_MAX_CONNS})"
        ),
    )
    load.add_argument(
        "--warm-pool", action="store_true",
        help=(
            "prime every unique key once before the measured load, so "
            "latency gates see steady-state serving (needs --cluster)"
        ),
    )
    load.add_argument(
        "--race-check", action="store_true",
        help=(
            "before the load, fire the first cold request at every "
            "worker simultaneously and require exactly one compile "
            "(needs --cluster)"
        ),
    )
    load.set_defaults(func=cmd_load)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
