"""Deterministic process-parallel map shared by the drivers.

``repro.check`` and ``repro.perf`` parallelise the same way: a picklable
worker over an explicit work list, fanned out over worker processes.
:func:`parallel_map` is the one primitive they share — an
order-preserving ``map`` that degrades to a plain loop for ``jobs <= 1``
(keeping single-process runs free of pool overhead and trivially
debuggable) and uses :class:`~concurrent.futures.ProcessPoolExecutor`
otherwise.

Order preservation is what makes the merge deterministic: results come
back in work-list order regardless of which process finished first, so
callers can fold them left-to-right and produce byte-identical summaries
at any job count.

Interruption is a first-class outcome, not a stack trace: Ctrl-C during
a long fuzz run, or a worker process dying outright (OOM kill, segfault,
``os._exit``), terminates the pool promptly and raises
:class:`ParallelMapError` carrying every result that *did* complete, so
drivers can surface partial statistics instead of discarding minutes of
finished work.  Ordinary exceptions raised *by the worker function*
still propagate unchanged (after cancelling the remaining work) — they
are bugs in the caller's worker, not infrastructure failures.
"""

from __future__ import annotations

from concurrent.futures import FIRST_EXCEPTION, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Iterable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")

__all__ = ["ParallelMapError", "parallel_map"]


class ParallelMapError(RuntimeError):
    """A parallel map was cut short; the completed prefix survives.

    ``partial`` maps *input index* to result for every item that finished
    before the interruption — indices, not a bare list, because
    completion order is arbitrary.  ``total`` is the full work-list
    length and ``cause`` the original :class:`KeyboardInterrupt` or
    :class:`~concurrent.futures.process.BrokenProcessPool`.
    """

    def __init__(
        self,
        partial: dict[int, object],
        total: int,
        cause: BaseException,
    ) -> None:
        super().__init__(
            f"parallel map interrupted by {type(cause).__name__} after "
            f"{len(partial)}/{total} item(s)"
        )
        self.partial = partial
        self.total = total
        self.cause = cause


def _terminate_pool(pool: ProcessPoolExecutor) -> None:
    """Stop a pool *now*: cancel queued work, kill live workers.

    ``shutdown(cancel_futures=True)`` only drains the queue; a worker
    mid-item would otherwise be awaited.  Killing the processes is the
    documented-by-usage escape hatch (``_processes`` has been stable
    since 3.7) and is best-effort: on any surprise we still shut down.
    """
    pool.shutdown(wait=False, cancel_futures=True)
    processes = getattr(pool, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.terminate()
        except Exception:  # noqa: BLE001 - cleanup must not mask the cause
            pass


def parallel_map(
    fn: Callable[[T], R], items: Iterable[T], jobs: int = 1
) -> list[R]:
    """``[fn(x) for x in items]``, fanned out over ``jobs`` processes.

    Results are returned in input order.  With ``jobs <= 1`` (or fewer
    than two items) the map runs in-process.  ``fn`` and every item must
    be picklable in parallel mode — module-level functions and
    :func:`functools.partial` over them qualify.

    Raises :class:`ParallelMapError` (carrying the completed partial
    results) when the run is interrupted — :class:`KeyboardInterrupt`,
    or the pool breaking because a worker process died.  An ordinary
    exception raised by *fn* cancels the remaining work and propagates
    as itself.
    """
    work: Sequence[T] = list(items)
    if jobs <= 1 or len(work) <= 1:
        return [fn(item) for item in work]

    pool = ProcessPoolExecutor(max_workers=min(jobs, len(work)))
    futures: dict = {}

    def completed() -> dict[int, R]:
        return {
            index: future.result()
            for future, index in futures.items()
            if future.done()
            and not future.cancelled()
            and future.exception() is None
        }

    try:
        for index, item in enumerate(work):
            futures[pool.submit(fn, item)] = index
        # FIRST_EXCEPTION returns as soon as anything fails, so a crash
        # near the front does not wait for the whole tail to drain.
        wait(futures, return_when=FIRST_EXCEPTION)
        for future in futures:
            if future.done() and not future.cancelled():
                exception = future.exception()
                if exception is not None:
                    raise exception
        pool.shutdown(wait=True)
        partial = completed()
        return [partial[i] for i in range(len(work))]
    except (KeyboardInterrupt, BrokenProcessPool) as exc:
        _terminate_pool(pool)
        raise ParallelMapError(completed(), len(work), exc) from exc
    except BaseException:
        _terminate_pool(pool)
        raise
