"""Unit tests for the parallel runtime: partitioning and the pool."""

import threading

import numpy as np
import pytest

from repro.parallel.partition import chunk_by_cost, chunk_ranges
from repro.parallel.pool import WorkerPool, get_pool, shutdown_all_pools


class TestChunkRanges:
    def test_covers_exactly(self):
        chunks = chunk_ranges(10, 3)
        covered = [i for lo, hi in chunks for i in range(lo, hi)]
        assert covered == list(range(10))

    def test_even_sizes(self):
        sizes = [hi - lo for lo, hi in chunk_ranges(100, 4)]
        assert sizes == [25, 25, 25, 25]

    def test_more_chunks_than_items(self):
        chunks = chunk_ranges(3, 8)
        assert len(chunks) == 3

    def test_degenerate(self):
        assert chunk_ranges(0, 4) == []
        assert chunk_ranges(5, 0) == []


class TestChunkByCost:
    def test_balances_skewed_costs(self):
        costs = np.array([100, 1, 1, 1, 1, 1, 1, 100])
        chunks = chunk_by_cost(costs, 2)
        covered = [i for lo, hi in chunks for i in range(lo, hi)]
        assert covered == list(range(8))
        loads = [costs[lo:hi].sum() for lo, hi in chunks]
        assert max(loads) <= 0.8 * costs.sum()

    def test_uniform_costs_behave_like_even_chunks(self):
        chunks = chunk_by_cost(np.ones(12), 3)
        assert len(chunks) == 3

    def test_zero_costs(self):
        chunks = chunk_by_cost(np.zeros(6), 2)
        covered = [i for lo, hi in chunks for i in range(lo, hi)]
        assert covered == list(range(6))

    def test_zero_cost_tail_folds_into_last_chunk(self):
        """A run of zero-cost items at the tail must not become its own
        zero-work chunk (it would waste a worker/shard slot)."""
        chunks = chunk_by_cost(np.array([5.0, 5.0, 0.0, 0.0]), 2)
        covered = [i for lo, hi in chunks for i in range(lo, hi)]
        assert covered == list(range(4))
        loads = [float(np.array([5.0, 5.0, 0.0, 0.0])[lo:hi].sum()) for lo, hi in chunks]
        assert all(load > 0 for load in loads)

    def test_zero_cost_tail_single_positive_item(self):
        chunks = chunk_by_cost(np.array([5.0, 0.0]), 2)
        assert chunks == [(0, 2)]  # one chunk, nothing empty

    def test_interior_zero_runs_never_make_empty_chunks(self):
        costs = np.array([10.0, 0.0, 0.0, 0.0, 10.0, 0.0, 0.0])
        for k in (2, 3, 5):
            chunks = chunk_by_cost(costs, k)
            covered = [i for lo, hi in chunks for i in range(lo, hi)]
            assert covered == list(range(len(costs))), k
            assert all(costs[lo:hi].sum() > 0 for lo, hi in chunks), k

    def test_single_item_cost_array(self):
        assert chunk_by_cost(np.array([3.0]), 4) == [(0, 1)]
        assert chunk_by_cost(np.array([0.0]), 4) == [(0, 1)]


class TestWorkerPool:
    def test_single_thread_inline(self):
        pool = WorkerPool(1)
        assert pool.run_batch([lambda: 1, lambda: 2]) == [1, 2]

    def test_parallel_results_ordered(self):
        pool = get_pool(2)
        fns = [lambda k=k: k * k for k in range(8)]
        assert pool.run_batch(fns) == [k * k for k in range(8)]

    def test_actually_uses_worker_threads(self):
        pool = get_pool(2)
        names = pool.run_batch(
            [lambda: threading.current_thread().name for _ in range(4)]
        )
        assert any("repro-worker" in n for n in names)

    def test_get_pool_caches(self):
        assert get_pool(3) is get_pool(3)

    def test_invalid_thread_count(self):
        with pytest.raises(ValueError):
            WorkerPool(0)

    def test_exceptions_propagate(self):
        pool = get_pool(2)

        def boom():
            raise RuntimeError("task failed")

        with pytest.raises(RuntimeError, match="task failed"):
            pool.run_batch([boom, lambda: 1])


class TestPoolLifecycle:
    """The shutdown path runs twice in real life: explicitly from tests or
    embedders, then again via the ``atexit`` hook."""

    def test_pool_shutdown_idempotent(self):
        pool = WorkerPool(2)
        pool.shutdown()
        pool.shutdown()  # second call is a no-op, not an error
        assert pool.closed

    def test_run_batch_after_shutdown_raises(self):
        pool = WorkerPool(2)
        pool.shutdown()
        with pytest.raises(RuntimeError, match="shut down"):
            pool.run_batch([lambda: 1])

    def test_shutdown_all_pools_idempotent(self):
        get_pool(2)
        shutdown_all_pools()
        shutdown_all_pools()  # the atexit double-fire

    def test_get_pool_after_shutdown_returns_fresh_pool(self):
        stale = get_pool(2)
        shutdown_all_pools()
        fresh = get_pool(2)
        assert fresh is not stale
        assert fresh.run_batch([lambda: 40, lambda: 2]) == [40, 2]

    def test_directly_shut_down_pool_is_replaced(self):
        pool = get_pool(3)
        pool.shutdown()
        assert get_pool(3) is not pool

    def test_concurrent_shutdown_single_teardown(self):
        pool = WorkerPool(4)
        barrier = threading.Barrier(4)

        def race():
            barrier.wait()
            pool.shutdown()

        threads = [threading.Thread(target=race) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert pool.closed
