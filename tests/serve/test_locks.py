"""Cross-process build locks: mutual exclusion, stale breaking,
and the single-flight rehydration protocol they enable."""

import os
import subprocess
import sys
import threading
import time

import pytest

from repro.serve.cluster.locks import FileLock, KeyLockManager, LockTimeout
from repro.serve.server import CompileRequest, CompileService
from repro.serve.store import Artifact, ArtifactStore


class TestFileLock:
    def test_mutual_exclusion_across_threads(self, tmp_path):
        path = tmp_path / "a.lock"
        inside = 0
        overlaps = []

        def worker():
            nonlocal inside
            for _ in range(20):
                with FileLock(path):
                    inside += 1
                    if inside > 1:
                        overlaps.append(inside)
                    time.sleep(0.001)
                    inside -= 1

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert overlaps == []
        assert not path.exists()  # released locks unlink their file

    def test_release_removes_lock_file(self, tmp_path):
        lock = FileLock(tmp_path / "b.lock")
        lock.acquire()
        assert lock.locked()
        assert (tmp_path / "b.lock").exists()
        lock.release()
        assert not lock.locked()
        assert not (tmp_path / "b.lock").exists()

    def test_acquire_times_out_while_held(self, tmp_path):
        path = tmp_path / "c.lock"
        holder = FileLock(path)
        holder.acquire()
        try:
            waiter = FileLock(path, poll_s=0.005)
            with pytest.raises(LockTimeout):
                waiter.acquire(timeout=0.1)
        finally:
            holder.release()

    def test_reacquire_while_held_raises(self, tmp_path):
        lock = FileLock(tmp_path / "d.lock")
        with lock:
            with pytest.raises(RuntimeError):
                lock.acquire()

    def test_stale_lock_from_hung_process_is_broken(self, tmp_path):
        """A subprocess flocks the path and hangs; once the file's mtime
        ages past ``stale_after`` a waiter breaks it and acquires."""
        path = tmp_path / "stale.lock"
        script = (
            "import fcntl, os, sys, time\n"
            f"fd = os.open({str(path)!r}, os.O_CREAT | os.O_RDWR)\n"
            "fcntl.flock(fd, fcntl.LOCK_EX)\n"
            "print('locked', flush=True)\n"
            "time.sleep(60)\n"
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", script],
            stdout=subprocess.PIPE, text=True,
        )
        try:
            assert proc.stdout.readline().strip() == "locked"
            # Age the lock file past the staleness threshold.
            past = time.time() - 3600
            os.utime(path, (past, past))
            broken = []
            waiter = FileLock(
                path, stale_after=0.2, poll_s=0.005,
                on_break=broken.append,
            )
            waiter.acquire(timeout=5.0)
            try:
                assert waiter.locked()
                assert broken == [str(path)]
            finally:
                waiter.release()
        finally:
            proc.kill()
            proc.wait()

    def test_fresh_lock_is_not_broken(self, tmp_path):
        path = tmp_path / "fresh.lock"
        holder = FileLock(path)
        holder.acquire()
        try:
            broken = []
            waiter = FileLock(
                path, stale_after=30.0, poll_s=0.005,
                on_break=broken.append,
            )
            with pytest.raises(LockTimeout):
                waiter.acquire(timeout=0.15)
            assert broken == []
            assert holder.locked()
        finally:
            holder.release()


class TestKeyLockManager:
    def test_lock_paths_shard_like_the_store(self, tmp_path):
        manager = KeyLockManager(tmp_path)
        lock = manager.lock("abcdef0123")
        assert lock.path == str(tmp_path / "ab" / "abcdef0123.lock")

    def test_holding_is_exclusive_per_key(self, tmp_path):
        manager = KeyLockManager(tmp_path, poll_s=0.005)
        with manager.holding("k1"):
            # A different key is independent...
            with manager.holding("k2", timeout=0.5):
                pass
            # ...the same key is not.
            with pytest.raises(LockTimeout):
                with manager.holding("k1", timeout=0.1):
                    pass


class _GatedBuild:
    """An injectable build that blocks until released (and counts calls)."""

    def __init__(self):
        self.release = threading.Event()
        self.started = threading.Event()
        self.calls = 0

    def __call__(self, prepared, config, *, key, train_args=None,
                 max_steps=2_000_000):
        self.calls += 1
        self.started.set()
        assert self.release.wait(timeout=10.0), "test never released build"
        return Artifact(key=key, variant=config.variant, func=prepared)


class TestCrossProcessSingleFlight:
    def test_race_loser_rehydrates_from_shared_disk(
        self, tmp_path, diamond_source
    ):
        """Two services (model: two worker processes) share one disk
        tier and one lock dir.  Racing one cold key must compile it
        exactly once; the loser serves the winner's artifact."""
        disk = tmp_path / "cache"
        locks = str(tmp_path / "locks")
        build = _GatedBuild()
        winner = CompileService(
            ArtifactStore.with_disk(disk), lock_dir=locks, build=build
        )
        loser = CompileService(
            ArtifactStore.with_disk(disk), lock_dir=locks
        )
        request = CompileRequest(
            source=diamond_source, args=(4, 5, 1), variant="ssapre"
        )
        try:
            results = {}
            tw = threading.Thread(
                target=lambda: results.setdefault("w", winner.handle(request))
            )
            tw.start()
            # The winner is inside its build, holding the key's file
            # lock, before the loser even starts.
            assert build.started.wait(timeout=5.0)
            tl = threading.Thread(
                target=lambda: results.setdefault("l", loser.handle(request))
            )
            tl.start()
            time.sleep(0.1)  # let the loser block on the file lock
            build.release.set()
            tw.join(timeout=10.0)
            tl.join(timeout=10.0)
        finally:
            winner.close()
            loser.close()

        assert results["w"].status == results["l"].status == "ok"
        assert results["w"].served_by == "compile"
        assert results["l"].served_by == "disk"
        assert results["w"].key == results["l"].key
        assert build.calls == 1
        assert winner.metrics.get("compiles") == 1
        assert loser.metrics.get("compiles") == 0
        assert loser.metrics.get("lock_rehydrates") == 1
        # Counter coherence: a rehydrated request still counted a miss.
        assert loser.metrics.get("misses") == (
            loser.metrics.get("compiles")
            + loser.metrics.get("lock_rehydrates")
        )

    def test_lock_break_increments_metric(self, tmp_path, diamond_source):
        """A pre-aged orphan lock file on the request's key is broken on
        the way to compiling, and the break is counted."""
        disk = tmp_path / "cache"
        locks = tmp_path / "locks"
        with CompileService(
            ArtifactStore.with_disk(disk), lock_dir=str(locks)
        ) as service:
            service._locks.stale_after = 0.05
            request = CompileRequest(
                source=diamond_source, args=(1, 2, 3), variant="ssapre"
            )
            # Plant a hung holder: flock held, mtime aged well past the
            # staleness threshold (a live builder refreshes on acquire).
            lock_path = service._locks.lock(
                service._plan(request)[2]
            ).path
            orphan = FileLock(lock_path)
            orphan.acquire()
            past = time.time() - 3600
            os.utime(lock_path, (past, past))
            try:
                response = service.handle(request)
            finally:
                os.close(orphan._fd)
                orphan._fd = None
            assert response.status == "ok"
            assert response.served_by == "compile"
            assert service.metrics.get("lock_breaks") == 1
