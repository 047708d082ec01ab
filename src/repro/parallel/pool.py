"""A persistent worker pool executing chunked NumPy kernels on threads.

NumPy releases the GIL inside ufunc inner loops and most gather/scatter
kernels, so chunked array work genuinely overlaps across threads — the
same memory-bandwidth-bound regime as the paper's OpenMP vector tasks.
The pool is persistent (created once per thread count) because the SSSP
inner loop issues thousands of small task batches; per-batch executor
creation would swamp the measurement exactly like spawning OpenMP teams
per loop would.
"""

from __future__ import annotations

import atexit
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Callable, Sequence

__all__ = ["BatchError", "WorkerPool", "get_pool", "shutdown_all_pools"]

_POOLS: dict[int, "WorkerPool"] = {}
_POOLS_LOCK = threading.Lock()

#: how many per-task errors the aggregate message spells out verbatim
_MAX_NAMED_FAILURES = 4


class BatchError(RuntimeError):
    """Aggregate failure of one task batch, every failed task named.

    A batch is a barrier of *independent* tasks (one per shard in the
    sharded stepper), so raising the first exception blind would discard
    the sibling results and hide simultaneous failures.  Instead the
    whole batch runs to the barrier and this error collects:

    - ``failures`` — ``(index, exception)`` per failed task, ascending
      by index (for shard batches the index *is* the shard id);
    - ``results`` — the full results list with ``None`` at failed slots,
      so a retrying caller can keep the completed work and re-run only
      the failed indices.
    """

    def __init__(self, failures, results):
        self.failures: list = list(failures)
        self.results: list = list(results)
        named = "; ".join(
            f"[{i}] {type(exc).__name__}: {exc}"
            for i, exc in self.failures[:_MAX_NAMED_FAILURES]
        )
        if len(self.failures) > _MAX_NAMED_FAILURES:
            named += f"; … {len(self.failures) - _MAX_NAMED_FAILURES} more"
        super().__init__(
            f"{len(self.failures)}/{len(self.results)} tasks failed: {named}"
        )

    @property
    def failed_indices(self) -> list[int]:
        return [i for i, _ in self.failures]


class WorkerPool:
    """Thin wrapper over :class:`ThreadPoolExecutor` with batch submit.

    ``num_threads=1`` short-circuits to inline execution so sequential
    baselines pay zero scheduling overhead (important for honest Fig. 4
    speedup denominators).
    """

    def __init__(self, num_threads: int):
        if num_threads < 1:
            raise ValueError("num_threads must be >= 1")
        self.num_threads = num_threads
        self._shutdown_lock = threading.Lock()
        self._closed = False
        self._executor = (
            ThreadPoolExecutor(max_workers=num_threads, thread_name_prefix="repro-worker")
            if num_threads > 1
            else None
        )

    @property
    def closed(self) -> bool:
        return self._closed

    def run_batch(self, fns: Sequence[Callable[[], object]]) -> list[object]:
        """Execute a batch of zero-argument tasks; returns their results in
        submission order.  Blocks until all complete (a task barrier —
        ``#pragma omp taskwait``).

        Tasks are independent, so one failure does not cancel the rest:
        every task runs to the barrier, and if any raised, a
        :class:`BatchError` aggregates all of them by task index (with
        the completed siblings' results attached for retrying callers).
        """
        if self._closed:
            raise RuntimeError("WorkerPool is shut down")
        results: list[object] = []
        failures: list[tuple[int, BaseException]] = []
        if self._executor is None or len(fns) <= 1:
            for i, fn in enumerate(fns):
                try:
                    results.append(fn())
                except Exception as exc:
                    results.append(None)
                    failures.append((i, exc))
        else:
            futures = [self._executor.submit(fn) for fn in fns]
            wait(futures)
            for i, f in enumerate(futures):
                exc = f.exception()
                if exc is None:
                    results.append(f.result())
                else:
                    results.append(None)
                    failures.append((i, exc))
        if failures:
            raise BatchError(failures, results)
        return results

    def shutdown(self) -> None:
        """Tear down the executor.  Idempotent and thread-safe: the pool
        is shut down both explicitly (tests, embedders) and via ``atexit``,
        and only the first caller touches the executor."""
        with self._shutdown_lock:
            if self._closed:
                return
            self._closed = True
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"WorkerPool<threads={self.num_threads}>"


def get_pool(num_threads: int) -> WorkerPool:
    """Fetch (or lazily create) the persistent pool for *num_threads*.

    A pool that was shut down (directly or via
    :func:`shutdown_all_pools`) is replaced with a fresh one, so callers
    after an explicit teardown keep working.
    """
    with _POOLS_LOCK:
        pool = _POOLS.get(num_threads)
        if pool is None or pool.closed:
            pool = WorkerPool(num_threads)
            _POOLS[num_threads] = pool
        return pool


def shutdown_all_pools() -> None:
    """Tear down every cached pool (registered at interpreter exit).

    Idempotent: safe to call explicitly from tests *and* again via the
    ``atexit`` hook.  The registry is detached under the lock first, so a
    concurrent :func:`get_pool` either sees the old pool before shutdown
    or creates a fresh one — and per-pool ``shutdown`` guards itself.
    """
    with _POOLS_LOCK:
        pools = list(_POOLS.values())
        _POOLS.clear()
    for pool in pools:
        pool.shutdown()


atexit.register(shutdown_all_pools)
