"""OpenMP-task-like parallel runtime.

The paper parallelizes its fused C implementation with OpenMP *tasks*
(§VI.C): the A_L/A_H matrix filters become one coarse task each, and the
per-phase vector/filter operations are split into evenly-sized chunk
tasks, each phase ending at a barrier.  This package reproduces that
execution model twice over:

- :mod:`repro.parallel.pool` — real threads.
  :meth:`WorkerPool.run_batch` is the one barrier primitive: run a batch
  of independent tasks, wait for all of them, and report every failure
  by index (:class:`BatchError`).  The task-parallel solver and both
  shard transports run on it.  NumPy ufunc inner loops release the GIL,
  so chunked kernels genuinely overlap on multicore hosts.
- :mod:`repro.parallel.simulate` — a deterministic simulated-time
  executor.  Tasks carry measured serial costs; a greedy list scheduler
  computes the makespan for any thread count.  This decouples the Fig. 4
  reproduction from the host's core count (this repo's CI box has 2
  cores; the paper's i7-7700K had 4).

:mod:`repro.parallel.partition` provides the chunking/balancing helpers.
"""

from .partition import chunk_ranges, balanced_partition
from .pool import BatchError, WorkerPool, get_pool
from .simulate import SimulatedExecutor, simulate_makespan

__all__ = [
    "chunk_ranges",
    "balanced_partition",
    "BatchError",
    "WorkerPool",
    "get_pool",
    "SimulatedExecutor",
    "simulate_makespan",
]
