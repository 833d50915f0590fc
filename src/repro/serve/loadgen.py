"""Deterministic load generator and differential checker for the service.

A workload is a pool of ``unique`` distinct programs (drawn from the
fuzz-driver generator shapes, so they are the same population
``repro.check`` polices) served ``requests`` times in an interleaved
round-robin: request *j* asks for pool entry ``j % unique``.  Every pool
entry past the first visit is therefore a cache hit (or a coalesced wait
under concurrency), which makes the achievable hit rate an exact
function of the spec — ``(requests - unique) / requests`` — and lets the
CI gate assert against it.

Each request's expected observable behaviour is precomputed on the
reference interpreter over the *unoptimised* prepared function, so the
run doubles as a differential test: any served answer that deviates is a
**mismatch**, whether it came from a fresh compile, the cache, a
degraded fallback, or the adaptation tier mid-hot-swap.  The CI serving
smoke job and the perf suite's ``serving`` section require zero.

A spec with ``drift_at=K`` is *phase-shifting*: from request ``K`` on,
argument vectors come from an independent distribution, so the live
node-frequency mix diverges from the profile the artifacts were compiled
under — the end-to-end driver for drift-triggered recompilation
(``python -m repro.serve load --adapt --drift-at K``).
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import random
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from repro.bench.generator import generate_program, random_args
from repro.check.driver import SHAPES, case_inputs, spec_for_shape
from repro.ir.printer import format_function
from repro.pipeline import prepare
from repro.profiles.interp import run_function
from repro.serve.metrics import sample_percentile
from repro.serve.server import CompileRequest, CompileService, ServeResponse

DEFAULT_VARIANTS = ("mc-ssapre", "ssapre")

#: Connection-pool size of the open-loop client.
OPEN_LOOP_CONNS = 32

#: Seconds the open-loop client waits for one answer before counting a
#: timeout.
OPEN_LOOP_TIMEOUT_S = 120.0

__all__ = [
    "DEFAULT_VARIANTS",
    "OpenLoopReport",
    "TCPServiceClient",
    "WorkloadSpec",
    "Workload",
    "LoadReport",
    "build_workload",
    "open_loop_schedule",
    "run_load",
    "run_open_loop",
]


@dataclass(frozen=True)
class WorkloadSpec:
    """Deterministic description of one load run."""

    requests: int = 100
    unique: int = 6
    shapes: tuple[str, ...] = SHAPES
    variants: tuple[str, ...] = DEFAULT_VARIANTS
    seed: int = 0
    rounds: int = 1
    #: Phase shift: requests ``j >= drift_at`` draw their argument
    #: vectors from an *independent* input distribution (fresh seeded
    #: draws instead of the train-correlated pool), flipping the node-
    #: frequency mix mid-run.  This is the workload that drives the
    #: adaptation tier's drift→recompile→hot-swap path end to end;
    #: ``None`` keeps the classic stationary workload.
    drift_at: int | None = None

    def __post_init__(self) -> None:
        if self.requests < 1:
            raise ValueError("requests must be >= 1")
        if not 1 <= self.unique <= self.requests:
            raise ValueError("unique must be in [1, requests]")
        for shape in self.shapes:
            if shape not in SHAPES:
                raise ValueError(f"unknown shape {shape!r}; expected one of {SHAPES}")
        if self.drift_at is not None and not 1 <= self.drift_at <= self.requests:
            raise ValueError("drift_at must be in [1, requests]")

    def expected_hit_rate(self) -> float:
        """The hit rate a correct cache must reach on this workload."""
        return (self.requests - self.unique) / self.requests


@dataclass
class Workload:
    """The materialised request sequence plus per-request expectations."""

    spec: WorkloadSpec
    requests: list[CompileRequest]
    #: ``expected[i]`` is request *i*'s reference observable
    #: ``(return_value, output_tuple)``.
    expected: list[tuple]


def build_workload(spec: WorkloadSpec) -> Workload:
    """Materialise the request sequence for *spec* (pure, deterministic)."""
    pool: list[tuple[CompileRequest, dict]] = []
    for i in range(spec.unique):
        shape = spec.shapes[i % len(spec.shapes)]
        gen_seed = spec.seed + i
        program_spec = spec_for_shape(shape, gen_seed)
        generated = generate_program(program_spec)
        inputs = case_inputs(program_spec)
        # The post-drift phase: tiny argument values collapse the masked
        # loop bounds the generator derives from them, so loop trip
        # counts (and with them the node-frequency distribution the
        # artifacts were trained under) genuinely move.
        drift_inputs = [
            random_args(program_spec, seed=9000 + spec.seed + 31 * i + k, low=0, high=3)
            for k in range(3)
        ]
        base = CompileRequest(
            source=format_function(generated.func),
            variant=spec.variants[i % len(spec.variants)],
            train_args=tuple(inputs[0]),
            rounds=spec.rounds,
        )
        prepared = prepare(generated.func)
        pool.append((base, {
            "prepared": prepared,
            "inputs": inputs[1:],
            "drift_inputs": drift_inputs,
        }))

    requests: list[CompileRequest] = []
    expected: list[tuple] = []
    oracle_cache: dict[tuple[int, tuple[int, ...]], tuple] = {}
    for j in range(spec.requests):
        i = j % spec.unique
        base, extra = pool[i]
        drifted = spec.drift_at is not None and j >= spec.drift_at
        ref_inputs = extra["drift_inputs"] if drifted else extra["inputs"]
        args = tuple(ref_inputs[(j // spec.unique) % len(ref_inputs)])
        requests.append(
            CompileRequest(
                source=base.source,
                args=args,
                variant=base.variant,
                train_args=base.train_args,
                rounds=base.rounds,
            )
        )
        cache_key = (i, args)
        if cache_key not in oracle_cache:
            result = run_function(extra["prepared"], list(args))
            oracle_cache[cache_key] = result.observable()
        expected.append(oracle_cache[cache_key])
    return Workload(spec=spec, requests=requests, expected=expected)


@dataclass
class LoadReport:
    """Outcome of one load run, JSON-exportable for the CI artifact."""

    requests: int
    ok: int = 0
    errors: int = 0
    timeouts: int = 0
    degraded: int = 0
    mismatches: int = 0
    served_by: dict[str, int] = field(default_factory=dict)
    hit_rate: float = 0.0
    expected_hit_rate: float = 0.0
    wall_s: float = 0.0
    #: Wall-clock throughput: requests / wall_s.  In a closed loop this
    #: conflates service time with client think time (the historical
    #: bias the per-request latency fields below were added to expose);
    #: kept as-is for BENCH.json compatibility.
    rps: float = 0.0
    #: Per-request send->receive latency summary (seconds), measured
    #: from individually recorded timestamps rather than the loop's
    #: total wall time: p50/p95/p99/mean_s/max_s.
    latency: dict = field(default_factory=dict)
    #: Throughput implied by service time alone: requests / (total
    #: in-service seconds / client threads).  >= rps, and the gap
    #: between the two is exactly the client-side think time the old
    #: single-number report hid.
    service_rps: float = 0.0
    metrics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "requests": self.requests,
            "ok": self.ok,
            "errors": self.errors,
            "timeouts": self.timeouts,
            "degraded": self.degraded,
            "mismatches": self.mismatches,
            "served_by": dict(sorted(self.served_by.items())),
            "hit_rate": round(self.hit_rate, 4),
            "expected_hit_rate": round(self.expected_hit_rate, 4),
            "wall_s": round(self.wall_s, 6),
            "rps": round(self.rps, 2),
            "latency": self.latency,
            "service_rps": round(self.service_rps, 2),
            "metrics": self.metrics,
        }


def run_load(
    service: CompileService,
    workload: Workload,
    *,
    jobs: int = 1,
) -> tuple[LoadReport, list[ServeResponse]]:
    """Drive *workload* through *service* with ``jobs`` client threads.

    Responses come back in request order regardless of concurrency, so
    ``responses[i]`` always pairs with ``workload.expected[i]``.

    Every request records its own send and receive timestamps: the
    report's ``latency`` block and ``service_rps`` come from those,
    while the historical ``rps`` stays requests-over-wall-time (which
    in a closed loop includes the client's own think time between
    requests).
    """

    def timed_handle(request: CompileRequest) -> tuple[ServeResponse, float, float]:
        send_t = time.perf_counter()
        response = service.handle(request)
        return response, send_t, time.perf_counter()

    start = time.perf_counter()
    if jobs <= 1:
        timed = [timed_handle(request) for request in workload.requests]
    else:
        with ThreadPoolExecutor(
            max_workers=jobs, thread_name_prefix="repro-loadgen"
        ) as pool:
            timed = list(pool.map(timed_handle, workload.requests))
    wall = time.perf_counter() - start

    responses = [response for response, _send, _recv in timed]
    latencies = [recv - send for _response, send, recv in timed]
    busy_s = sum(latencies)
    report = LoadReport(
        requests=len(responses),
        expected_hit_rate=workload.spec.expected_hit_rate(),
        wall_s=wall,
        rps=len(responses) / wall if wall > 0 else 0.0,
        latency=latency_summary(latencies),
        service_rps=(
            len(responses) / (busy_s / max(1, jobs)) if busy_s > 0 else 0.0
        ),
    )
    _count_responses(report, responses, workload.expected)
    report.hit_rate = service.metrics.hit_rate()
    report.metrics = service.metrics.to_dict()
    return report, responses


def _count_responses(
    report: "LoadReport | OpenLoopReport",
    responses: list[ServeResponse],
    expected: list[tuple],
) -> None:
    """Count each response into *report* (either kind of load report):
    its status, a mismatch for every ``ok`` answer whose observable
    differs from the reference, whether it was degraded, and which tier
    served it."""
    for response, want in zip(responses, expected):
        if response.status == "ok":
            report.ok += 1
            if response.observable() != want:
                report.mismatches += 1
        elif response.status == "timeout":
            report.timeouts += 1
        else:
            report.errors += 1
        if response.degraded:
            report.degraded += 1
        if response.served_by is not None:
            report.served_by[response.served_by] = (
                report.served_by.get(response.served_by, 0) + 1
            )


def latency_summary(latencies: list[float]) -> dict:
    """The pinned latency block: percentiles + mean/max, in seconds."""
    if not latencies:
        return {
            "p50_s": 0.0, "p95_s": 0.0, "p99_s": 0.0,
            "mean_s": 0.0, "max_s": 0.0,
        }
    return {
        "p50_s": round(sample_percentile(latencies, 0.5), 6),
        "p95_s": round(sample_percentile(latencies, 0.95), 6),
        "p99_s": round(sample_percentile(latencies, 0.99), 6),
        "mean_s": round(sum(latencies) / len(latencies), 6),
        "max_s": round(max(latencies), 6),
    }


class TCPServiceClient:
    """A client of the JSON-lines protocol over TCP.

    ``handle(request) -> ServeResponse`` asks a remote server — a single
    worker or the whole cluster front end — exactly like an in-process
    service.  Connections are per-thread, so concurrent callers use
    real concurrent sockets.
    """

    def __init__(
        self, host: str, port: int, *, timeout: float = 120.0
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self._local = threading.local()
        self._conns: list[socket.socket] = []
        self._conns_lock = threading.Lock()

    def _exchange(self, payload: dict) -> dict:
        stream = getattr(self._local, "stream", None)
        if stream is None:
            sock = socket.create_connection(
                (self.host, self.port), timeout=self.timeout
            )
            sock.settimeout(self.timeout)
            stream = sock.makefile("rw", encoding="utf-8", newline="\n")
            self._local.stream = stream
            with self._conns_lock:
                self._conns.append(sock)
        stream.write(json.dumps(payload) + "\n")
        stream.flush()
        line = stream.readline()
        if not line:
            raise ConnectionError(
                f"server {self.host}:{self.port} closed the connection"
            )
        return json.loads(line)

    def handle(self, request: CompileRequest) -> ServeResponse:
        return ServeResponse.from_dict(
            self._exchange(dataclasses.asdict(request))
        )

    def close(self) -> None:
        with self._conns_lock:
            conns, self._conns = self._conns, []
        for sock in conns:
            try:
                sock.close()
            except OSError:
                pass

    def __enter__(self) -> "TCPServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ----------------------------------------------------------------------
# Open-loop mode: arrivals follow a fixed schedule, never the server.

def open_loop_schedule(n: int, rps: float, seed: int = 0) -> list[float]:
    """Deterministic Poisson arrival offsets (seconds from start).

    Exponential inter-arrival gaps at ``rps`` from a seeded PRNG: the
    schedule is a pure function of ``(n, rps, seed)``, so a bench run
    is replayable and two processes can agree on the offered load
    without coordination.  The first arrival is at 0.
    """
    if n < 1:
        return []
    if rps <= 0:
        raise ValueError(f"rps must be positive, got {rps}")
    rng = random.Random(seed)
    offsets = [0.0]
    for _ in range(n - 1):
        offsets.append(offsets[-1] + rng.expovariate(rps))
    return offsets


@dataclass
class OpenLoopReport:
    """Outcome of one open-loop run.

    ``latency`` is **coordinated-omission-free**: each request's clock
    starts at its *scheduled* arrival time, so time spent queueing for
    a free connection — the signature of a server that cannot keep up —
    is charged to the request, not silently dropped the way a closed
    loop drops it.  ``service_latency`` (actual send -> receive) is
    reported alongside so queue delay and service delay are separable.
    """

    requests: int
    offered_rps: float
    seed: int
    ok: int = 0
    errors: int = 0
    timeouts: int = 0
    degraded: int = 0
    mismatches: int = 0
    served_by: dict[str, int] = field(default_factory=dict)
    wall_s: float = 0.0
    achieved_rps: float = 0.0
    max_in_flight: int = 0
    latency: dict = field(default_factory=dict)
    service_latency: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "requests": self.requests,
            "offered_rps": round(self.offered_rps, 2),
            "seed": self.seed,
            "ok": self.ok,
            "errors": self.errors,
            "timeouts": self.timeouts,
            "degraded": self.degraded,
            "mismatches": self.mismatches,
            "served_by": dict(sorted(self.served_by.items())),
            "wall_s": round(self.wall_s, 6),
            "achieved_rps": round(self.achieved_rps, 2),
            "max_in_flight": self.max_in_flight,
            "latency": self.latency,
            "service_latency": self.service_latency,
        }


def run_open_loop(
    host: str,
    port: int,
    workload: Workload,
    *,
    rps: float,
    seed: int = 0,
) -> OpenLoopReport:
    """Drive *workload* at a fixed offered rate against a TCP server.

    Arrivals follow :func:`open_loop_schedule` regardless of how fast
    the server answers; a request whose arrival time has passed is
    dispatched immediately (it queues for one of :data:`OPEN_LOOP_CONNS`
    pooled connections if all are busy, and that wait is part of its
    CO-free latency).  Differential checking is identical to the closed loop:
    every ``ok`` answer is compared against the workload's reference
    expectations.
    """
    return asyncio.run(_open_loop_async(host, port, workload, rps, seed))


async def _open_loop_async(
    host: str, port: int, workload: Workload, rps: float, seed: int
) -> OpenLoopReport:
    n = len(workload.requests)
    schedule = open_loop_schedule(n, rps, seed)
    loop = asyncio.get_event_loop()

    pool: asyncio.Queue = asyncio.Queue()
    conns = min(OPEN_LOOP_CONNS, n)
    for _ in range(conns):
        reader, writer = await asyncio.open_connection(host, port)
        pool.put_nowait((reader, writer))

    responses: list[ServeResponse | None] = [None] * n
    latencies = [0.0] * n            # scheduled arrival -> receive
    service_latencies = [0.0] * n    # actual send -> receive
    in_flight = 0
    max_in_flight = 0
    t0 = loop.time()

    async def fire(i: int, scheduled: float, request: CompileRequest) -> None:
        nonlocal in_flight, max_in_flight
        in_flight += 1
        max_in_flight = max(max_in_flight, in_flight)
        try:
            reader, writer = await pool.get()
            try:
                send_t = loop.time()
                writer.write(
                    (json.dumps(dataclasses.asdict(request)) + "\n").encode()
                )
                await writer.drain()
                raw = await asyncio.wait_for(
                    reader.readline(), timeout=OPEN_LOOP_TIMEOUT_S
                )
                recv_t = loop.time()
                if not raw:
                    raise ConnectionError("server closed the connection")
            finally:
                pool.put_nowait((reader, writer))
            responses[i] = ServeResponse.from_dict(json.loads(raw))
            latencies[i] = recv_t - (t0 + scheduled)
            service_latencies[i] = recv_t - send_t
        except (OSError, ValueError, asyncio.TimeoutError) as exc:
            recv_t = loop.time()
            responses[i] = ServeResponse(
                status="timeout" if isinstance(exc, asyncio.TimeoutError)
                else "error",
                error=f"{type(exc).__name__}: {exc}",
            )
            latencies[i] = recv_t - (t0 + scheduled)
            service_latencies[i] = latencies[i]
        finally:
            in_flight -= 1

    tasks = []
    for i, (scheduled, request) in enumerate(zip(schedule, workload.requests)):
        delay = (t0 + scheduled) - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.ensure_future(fire(i, scheduled, request)))
    await asyncio.gather(*tasks)
    wall = loop.time() - t0

    while not pool.empty():
        _reader, writer = pool.get_nowait()
        writer.close()

    report = OpenLoopReport(
        requests=n,
        offered_rps=rps,
        seed=seed,
        wall_s=wall,
        achieved_rps=n / wall if wall > 0 else 0.0,
        max_in_flight=max_in_flight,
        latency=latency_summary(latencies),
        service_latency=latency_summary(service_latencies),
    )
    _count_responses(report, responses, workload.expected)
    return report
