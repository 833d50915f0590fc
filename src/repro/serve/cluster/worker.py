"""Worker subprocess lifecycle: spawn, probe, restart.

A cluster worker is just ``python -m repro.serve serve --port 0`` with
the shared ``--cache-dir``/``--lock-dir`` — the same JSON-lines TCP
server operators already run by hand, so a worker is individually
debuggable with ``nc``.  The handle here owns the subprocess: it
parses the ``serving on host:port`` banner to learn the ephemeral port,
keeps draining stderr (so a chatty worker can never fill the pipe and
wedge), answers liveness probes via the in-band
``{"cmd": "ping"}`` protocol message, and restarts the process in place
after a crash.  A restarted worker keeps its ``worker_id``, so its ring
position — and therefore key ownership — is unchanged; it simply comes
back cold in memory and re-warms from the shared disk tier.
"""

from __future__ import annotations

import json
import socket
import subprocess
import sys
import threading
import time
from typing import Optional

#: How long to wait for a freshly spawned worker's banner.
DEFAULT_SPAWN_TIMEOUT_S = 30.0

__all__ = ["DEFAULT_SPAWN_TIMEOUT_S", "WorkerHandle", "probe_worker"]


def probe_worker(
    host: str, port: int, timeout: float = 5.0, cmd: str = "ping"
) -> Optional[dict]:
    """One request/response exchange on a fresh connection, or ``None``.

    Used for liveness probes (``cmd="ping"``) and metrics collection
    (``cmd="metrics"``); any connect/protocol failure reads as "down".
    """
    try:
        with socket.create_connection((host, port), timeout=timeout) as sock:
            sock.settimeout(timeout)
            sock.sendall((json.dumps({"cmd": cmd}) + "\n").encode())
            reader = sock.makefile("r", encoding="utf-8")
            line = reader.readline()
        return json.loads(line) if line else None
    except (OSError, ValueError):
        return None


class WorkerHandle:
    """One supervised worker process and its serving address."""

    def __init__(
        self,
        worker_id: str,
        *,
        cache_dir: str,
        lock_dir: str,
        threads: int = 2,
        max_entries: int = 256,
        host: str = "127.0.0.1",
        spawn_timeout_s: float = DEFAULT_SPAWN_TIMEOUT_S,
    ) -> None:
        self.worker_id = worker_id
        self.host = host
        self.port: Optional[int] = None
        self.cache_dir = cache_dir
        self.lock_dir = lock_dir
        self.threads = threads
        self.max_entries = max_entries
        self.spawn_timeout_s = spawn_timeout_s
        self.restarts = 0
        self._proc: Optional[subprocess.Popen] = None

    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._proc is not None and self._proc.poll() is None:
            return
        argv = [
            sys.executable, "-m", "repro.serve", "serve",
            "--port", "0", "--host", self.host,
            "--cache-dir", self.cache_dir,
            "--lock-dir", self.lock_dir,
            "--workers", str(self.threads),
            "--max-entries", str(self.max_entries),
        ]
        self._proc = subprocess.Popen(
            argv,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        self.port = self._await_banner()
        # Keep the pipe drained for the rest of the process's life.
        threading.Thread(
            target=self._drain_stderr,
            name=f"repro-worker-{self.worker_id}-stderr",
            daemon=True,
        ).start()

    def _await_banner(self) -> int:
        assert self._proc is not None and self._proc.stderr is not None
        deadline = time.monotonic() + self.spawn_timeout_s
        while time.monotonic() < deadline:
            line = self._proc.stderr.readline()
            if not line:
                raise RuntimeError(
                    f"worker {self.worker_id} exited before its banner "
                    f"(rc={self._proc.poll()})"
                )
            if line.startswith("serving on "):
                return int(line.rsplit(":", 1)[1])
        raise RuntimeError(
            f"worker {self.worker_id} produced no banner within "
            f"{self.spawn_timeout_s:g}s"
        )

    def _drain_stderr(self) -> None:
        proc = self._proc
        if proc is None or proc.stderr is None:
            return
        try:
            for _line in proc.stderr:
                pass
        except ValueError:  # pipe closed during shutdown
            pass

    # ------------------------------------------------------------------
    def alive(self) -> bool:
        return self._proc is not None and self._proc.poll() is None

    def healthy(self, timeout: float = 5.0) -> bool:
        """Process up *and* answering the in-band ping."""
        if not self.alive() or self.port is None:
            return False
        answer = probe_worker(self.host, self.port, timeout=timeout)
        return bool(answer and answer.get("pong"))

    def metrics(self, timeout: float = 10.0) -> Optional[dict]:
        if self.port is None:
            return None
        return probe_worker(self.host, self.port, timeout=timeout, cmd="metrics")

    def restart(self) -> None:
        """Replace a dead (or wedged) process; ring identity is kept."""
        self.stop()
        self.restarts += 1
        self.start()

    def stop(self, timeout: float = 5.0) -> None:
        proc, self._proc = self._proc, None
        self.port = None
        if proc is None:
            return
        if proc.poll() is None:
            proc.terminate()
            try:
                proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=timeout)
        if proc.stderr is not None:
            proc.stderr.close()

    def kill(self) -> None:
        """Hard-kill the process (tests use this to simulate a crash)."""
        if self._proc is not None and self._proc.poll() is None:
            self._proc.kill()
            self._proc.wait(timeout=5.0)

    def describe(self) -> dict:
        return {
            "worker_id": self.worker_id,
            "host": self.host,
            "port": self.port,
            "alive": self.alive(),
            "restarts": self.restarts,
        }
