"""OpenMP-task-like parallel runtime.

The paper parallelizes its fused C implementation with OpenMP *tasks*
(§VI.C): the A_L/A_H matrix filters become one coarse task each, and the
per-phase vector/filter operations are split into evenly-sized chunk
tasks, each phase ending at a barrier.  This package runs that execution
model on real threads:

- :mod:`repro.parallel.pool` — :meth:`WorkerPool.run_batch` is the one
  barrier primitive: run a batch of independent tasks, wait for all of
  them, and report every failure by index (:class:`BatchError`).  The
  task-parallel solver and both shard transports run on it.  NumPy ufunc
  inner loops release the GIL, so chunked kernels genuinely overlap on
  multicore hosts.
- :mod:`repro.parallel.partition` — the chunking helpers that cut a
  vector or a frontier's edge work into those tasks.
"""

from .partition import chunk_ranges
from .pool import BatchError, WorkerPool, get_pool

__all__ = [
    "chunk_ranges",
    "BatchError",
    "WorkerPool",
    "get_pool",
]
