"""The cluster front end: one asyncio listener, N worker processes.

Clients speak the exact JSON-lines protocol of a single worker — the
cluster is a drop-in replacement for ``python -m repro.serve serve
--port``.  For every request line the front end computes the program's
*structural* artifact key (memoised per distinct request plan; an
unparseable request falls back to a raw content hash so the owning
worker can produce the error response), routes it on the consistent
hash ring, and forwards the line over a pooled connection to the owning
worker.  Structural routing concentrates all of one program's traffic —
every profile variant included — on one worker, which is what makes the
per-worker plan cache and the shared disk tier's write pattern behave.

Supervision: a background task probes each worker (process liveness
plus the in-band ``{"cmd": "ping"}``) and restarts crashed or wedged
workers in place *without* dropping the listener; in-flight requests to
a dying worker are retried against its replacement.  A restarted worker
keeps its ring identity, so no keys move.

``{"cmd": "metrics"}`` answers with the per-worker snapshots merged via
:func:`repro.serve.metrics.merge_metrics_dicts` (schema 3) plus a
``cluster`` block (ring layout, worker states, restart counts).
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import socket
import threading
import time
from collections import OrderedDict
from typing import Optional, Sequence

from repro.lang.parser import parse_function
from repro.pipeline import prepare
from repro.serve.cluster.ring import DEFAULT_VNODES, HashRing
from repro.serve.cluster.worker import WorkerHandle
from repro.serve.keys import structural_key
from repro.serve.metrics import merge_metrics_dicts
from repro.serve.server import CompileRequest

#: Per-worker plan-cache capacity (distinct request plans memoised by
#: each worker; see CompileService).
DEFAULT_PLAN_CACHE = 64

#: Request fields that vary per input but never change the route.
_INPUT_FIELDS = frozenset({"args", "train_args", "max_steps"})

#: Longest JSON line accepted on any stream (sources are small).
_LINE_LIMIT = 1 << 20

__all__ = [
    "DEFAULT_PLAN_CACHE",
    "Cluster",
    "ClusterFrontend",
    "race_cold_key",
]


class ClusterFrontend:
    """Asyncio router over a fixed pool of :class:`WorkerHandle`."""

    def __init__(
        self,
        workers: Sequence[WorkerHandle],
        *,
        vnodes: int = DEFAULT_VNODES,
        health_every: float = 0.5,
        unhealthy_after: int = 2,
        route_memo: int = 1024,
    ) -> None:
        self.workers = {w.worker_id: w for w in workers}
        self.ring = HashRing(self.workers, vnodes=vnodes)
        self.health_every = health_every
        self.unhealthy_after = unhealthy_after
        self.requests = 0
        self.routed: dict[str, int] = {wid: 0 for wid in self.workers}
        self.retries = 0
        self._route_memo: OrderedDict[str, str] = OrderedDict()
        self._route_memo_size = route_memo
        self._idle: dict[str, list] = {wid: [] for wid in self.workers}
        self._revive_locks: dict[str, asyncio.Lock] = {}
        self._ping_failures: dict[str, int] = {wid: 0 for wid in self.workers}
        self._server: Optional[asyncio.base_events.Server] = None
        self._health_task: Optional[asyncio.Task] = None
        self._client_tasks: set[asyncio.Task] = set()

    # ------------------------------------------------------------------
    async def start(self, host: str, port: int) -> int:
        self._revive_locks = {wid: asyncio.Lock() for wid in self.workers}
        self._server = await asyncio.start_server(
            self._handle_client, host, port, limit=_LINE_LIMIT
        )
        self._health_task = asyncio.ensure_future(self._health_loop())
        return self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._health_task is not None:
            self._health_task.cancel()
            try:
                await self._health_task
            except asyncio.CancelledError:
                pass
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for task in list(self._client_tasks):
            task.cancel()
        if self._client_tasks:
            await asyncio.gather(*self._client_tasks, return_exceptions=True)
        for conns in self._idle.values():
            for _reader, writer, _port in conns:
                writer.close()
            conns.clear()

    # ------------------------------------------------------------------
    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._client_tasks.add(task)
        try:
            while True:
                try:
                    raw = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    writer.write(
                        json.dumps(
                            {"status": "error", "error": "request line too long"}
                        ).encode() + b"\n"
                    )
                    await writer.drain()
                    break
                if not raw:
                    break
                line = raw.decode("utf-8", errors="replace").strip()
                if not line:
                    continue
                response = await self._dispatch(line)
                writer.write(response + b"\n")
                await writer.drain()
        except (ConnectionError, OSError):
            pass  # client went away; nothing to answer
        except asyncio.CancelledError:
            pass  # frontend shutting down
        finally:
            if task is not None:
                self._client_tasks.discard(task)
            writer.close()

    async def _dispatch(self, line: str) -> bytes:
        self.requests += 1
        try:
            data = json.loads(line)
        except json.JSONDecodeError as exc:
            return json.dumps(
                {"status": "error", "error": f"bad JSON: {exc}"}
            ).encode()
        if isinstance(data, dict) and data.get("cmd") == "ping":
            return json.dumps(
                {"status": "ok", "pong": True, "role": "frontend"}
            ).encode()
        if isinstance(data, dict) and data.get("cmd") == "metrics":
            return json.dumps(await self.merged_metrics()).encode()
        worker = self.workers[self.ring.route(self._route_key(data))]
        self.routed[worker.worker_id] += 1
        return await self._forward(worker, line)

    # ------------------------------------------------------------------
    def _route_key(self, data) -> str:
        """The routing key: structural artifact key when computable.

        The worker's own request parser (:meth:`CompileRequest.from_dict`)
        builds the config, so the front end and the worker agree on
        every field and default.  The key is computed from, and memoised
        per, the request *plan* — the request minus its input vectors —
        so the parse/prepare cost is paid once per distinct program, and
        one program's requests route together whatever their inputs.  Malformed requests hash
        their raw plan instead — they still route deterministically, and
        the owning worker produces the real error response.
        """
        if not isinstance(data, dict):
            return "raw:" + hashlib.sha256(repr(data).encode()).hexdigest()
        plan = {k: v for k, v in data.items() if k not in _INPUT_FIELDS}
        memo_key = json.dumps(plan, sort_keys=True, default=repr)
        cached = self._route_memo.get(memo_key)
        if cached is not None:
            self._route_memo.move_to_end(memo_key)
            return cached
        try:
            request = CompileRequest.from_dict(plan)
            prepared = prepare(parse_function(request.source))
            key = structural_key(
                prepared, request.config(), engine=request.engine
            )
        except Exception:  # noqa: BLE001 - malformed request, route on content
            key = "raw:" + hashlib.sha256(memo_key.encode()).hexdigest()
        self._route_memo[memo_key] = key
        self._route_memo.move_to_end(memo_key)
        while len(self._route_memo) > self._route_memo_size:
            self._route_memo.popitem(last=False)
        return key

    # ------------------------------------------------------------------
    async def _forward(self, worker: WorkerHandle, line: str) -> bytes:
        """One exchange with *worker*, retrying across a restart."""
        payload = line.encode()
        for attempt in range(3):
            conn = await self._acquire_conn(worker)
            if conn is None:
                await self._revive(worker)
                continue
            reader, writer, _port = conn
            try:
                writer.write(payload + b"\n")
                await writer.drain()
                raw = await reader.readline()
                if not raw:
                    raise ConnectionError("worker closed the connection")
            except (ConnectionError, OSError):
                writer.close()
                if attempt < 2:
                    self.retries += 1
                    await self._revive(worker)
                continue
            self._idle[worker.worker_id].append(conn)
            return raw.rstrip(b"\n")
        return json.dumps(
            {
                "status": "error",
                "error": f"worker {worker.worker_id} unavailable",
            }
        ).encode()

    async def _acquire_conn(self, worker: WorkerHandle):
        idle = self._idle[worker.worker_id]
        while idle:
            conn = idle.pop()
            if conn[2] == worker.port and not conn[1].is_closing():
                return conn
            conn[1].close()  # stale: worker restarted on a new port
        if worker.port is None:
            return None
        try:
            reader, writer = await asyncio.open_connection(
                worker.host, worker.port, limit=_LINE_LIMIT
            )
        except OSError:
            return None
        return (reader, writer, worker.port)

    async def _revive(self, worker: WorkerHandle) -> None:
        """Restart a dead worker exactly once per incident."""
        async with self._revive_locks[worker.worker_id]:
            if worker.alive():
                return
            loop = asyncio.get_event_loop()
            await loop.run_in_executor(None, worker.restart)
            self._ping_failures[worker.worker_id] = 0
            # Connections to the old incarnation are stale by port.
            for conn in self._idle[worker.worker_id]:
                conn[1].close()
            self._idle[worker.worker_id].clear()

    async def _health_loop(self) -> None:
        loop = asyncio.get_event_loop()
        while True:
            await asyncio.sleep(self.health_every)
            for worker in self.workers.values():
                if not worker.alive():
                    await self._revive(worker)
                    continue
                healthy = await loop.run_in_executor(None, worker.healthy)
                if healthy:
                    self._ping_failures[worker.worker_id] = 0
                    continue
                # A loaded worker can miss one ping; only a repeat
                # offender is declared wedged and replaced.
                self._ping_failures[worker.worker_id] += 1
                if self._ping_failures[worker.worker_id] >= self.unhealthy_after:
                    await loop.run_in_executor(None, worker.restart)
                    self._ping_failures[worker.worker_id] = 0
                    for conn in self._idle[worker.worker_id]:
                        conn[1].close()
                    self._idle[worker.worker_id].clear()

    # ------------------------------------------------------------------
    async def merged_metrics(self) -> dict:
        loop = asyncio.get_event_loop()
        snapshots = await asyncio.gather(
            *(
                loop.run_in_executor(None, worker.metrics)
                for worker in self.workers.values()
            )
        )
        merged = merge_metrics_dicts([s for s in snapshots if s])
        merged["cluster"] = self.describe()
        return merged

    def describe(self) -> dict:
        return {
            "workers": [w.describe() for w in self.workers.values()],
            "ring": self.ring.describe(),
            "frontend_requests": self.requests,
            "routed": dict(self.routed),
            "retries": self.retries,
            "restarts": sum(w.restarts for w in self.workers.values()),
        }


class Cluster:
    """Synchronous orchestrator: workers + front end, one call to start.

    Runs the asyncio front end on a dedicated thread so ordinary
    (threaded) code — the CLI, the bench harness, the tests — can treat
    the whole cluster as a context manager with a ``port``.
    """

    def __init__(
        self,
        n_workers: int,
        *,
        cache_dir: str,
        lock_dir: str,
        host: str = "127.0.0.1",
        port: int = 0,
        plan_cache: int = DEFAULT_PLAN_CACHE,
        worker_threads: int = 2,
        vnodes: int = DEFAULT_VNODES,
        health_every: float = 0.5,
    ) -> None:
        if n_workers < 1:
            raise ValueError("a cluster needs at least one worker")
        self.host = host
        self.port: Optional[int] = None
        self._requested_port = port
        self.workers = [
            WorkerHandle(
                f"w{i}",
                cache_dir=cache_dir,
                lock_dir=lock_dir,
                plan_cache=plan_cache,
                threads=worker_threads,
                host=host,
            )
            for i in range(n_workers)
        ]
        self.frontend = ClusterFrontend(
            self.workers, vnodes=vnodes, health_every=health_every
        )
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    def start(self, timeout: float = 60.0) -> "Cluster":
        # Spawn workers concurrently: each start() blocks on its banner,
        # and the interpreter startups overlap on I/O.
        spawners = [
            threading.Thread(target=w.start, name=f"spawn-{w.worker_id}")
            for w in self.workers
        ]
        for t in spawners:
            t.start()
        for t in spawners:
            t.join(timeout=timeout)
        dead = [w.worker_id for w in self.workers if not w.alive()]
        if dead:
            self.stop()
            raise RuntimeError(f"workers failed to start: {dead}")
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="repro-cluster-frontend",
            daemon=True,
        )
        self._thread.start()
        future = asyncio.run_coroutine_threadsafe(
            self.frontend.start(self.host, self._requested_port), self._loop
        )
        self.port = future.result(timeout=timeout)
        return self

    def stop(self) -> None:
        if self._loop is not None:
            asyncio.run_coroutine_threadsafe(
                self.frontend.stop(), self._loop
            ).result(timeout=30.0)
            self._loop.call_soon_threadsafe(self._loop.stop)
            if self._thread is not None:
                self._thread.join(timeout=10.0)
            self._loop.close()
            self._loop = None
            self._thread = None
        for worker in self.workers:
            worker.stop()
        self.port = None

    def __enter__(self) -> "Cluster":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    def merged_metrics(self, timeout: float = 30.0) -> dict:
        assert self._loop is not None, "cluster is not running"
        return asyncio.run_coroutine_threadsafe(
            self.frontend.merged_metrics(), self._loop
        ).result(timeout=timeout)

    def worker_ports(self) -> list[tuple[str, int]]:
        return [(w.host, w.port) for w in self.workers if w.port is not None]


def race_cold_key(
    targets: list[tuple[str, int]],
    request: dict,
    *,
    timeout: float = 60.0,
) -> list[dict]:
    """Fire one identical request at several workers *simultaneously*.

    Connects to each worker's own port — deliberately bypassing the
    ring, which would send every copy to the key's single owner — and
    releases all sends through a barrier.  This is the cross-process
    cold-key race: with a shared lock dir exactly one worker compiles
    and the rest rehydrate from disk, which callers verify by diffing
    merged ``compiles`` counters around the call.
    """
    barrier = threading.Barrier(len(targets))
    results: list[Optional[dict]] = [None] * len(targets)
    errors: list[Optional[Exception]] = [None] * len(targets)
    line = (json.dumps(request) + "\n").encode()

    def shoot(i: int, host: str, port: int) -> None:
        try:
            with socket.create_connection((host, port), timeout=timeout) as sock:
                sock.settimeout(timeout)
                barrier.wait(timeout=timeout)
                sock.sendall(line)
                reader = sock.makefile("r", encoding="utf-8")
                results[i] = json.loads(reader.readline())
        except Exception as exc:  # noqa: BLE001 - surfaced to the caller
            errors[i] = exc

    threads = [
        threading.Thread(target=shoot, args=(i, host, port))
        for i, (host, port) in enumerate(targets)
    ]
    start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=timeout + 5.0)
    for exc in errors:
        if exc is not None:
            raise RuntimeError(f"race client failed: {exc}") from exc
    if any(r is None for r in results):
        raise RuntimeError(
            f"race did not finish within {time.perf_counter() - start:.1f}s"
        )
    return results  # type: ignore[return-value]
