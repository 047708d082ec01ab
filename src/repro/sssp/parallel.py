"""Task-parallel fused delta-stepping (the paper's OpenMP-task version).

§VI.C: "the creation of the light and heavy edges are independent and
were each made into a task.  The computation and filtering of vectors was
performed by splitting the vector into evenly-sized tasks."  This module
reproduces that decomposition exactly:

- ``A_L`` and ``A_H`` construction: **one coarse task each** (hence ≤2-way
  parallelism for the 35-40% filtering share — the paper's reason its
  Fig. 4 4-thread bars barely beat the 2-thread bars);
- every dense vector op in the bucket loop: ``num_threads`` evenly-sized
  chunk tasks;
- the relaxation gather/min: chunked by frontier edge count, with a
  sequential merge of per-chunk partial minima.

Every task batch runs on real threads
(:meth:`repro.parallel.pool.WorkerPool.run_batch`): NumPy kernels release
the GIL, so chunks overlap on real cores.  ``num_threads=1`` runs the same
decomposition inline, which is Fig. 4's baseline (``repro fig4``).
"""

from __future__ import annotations

import numpy as np

from ..graphs.graph import Graph
from ..kernels import min_by_target
from ..parallel.partition import chunk_by_cost, chunk_ranges
from ..parallel.pool import get_pool
from .fused import build_heavy_csr, build_light_csr
from .result import INF, SSSPResult

__all__ = ["parallel_delta_stepping"]

#: minimum edge work for a chunked relaxation batch (below this, Python
#: task-dispatch overhead exceeds the kernel time)
MIN_PARALLEL_SIZE = 1 << 16
#: minimum vector length for chunked dense vector ops — these are
#: ~µs-scale ufunc sweeps, so the bar is much higher than for relax
MIN_VECTOR_PARALLEL_SIZE = 1 << 17


def parallel_delta_stepping(
    graph: Graph,
    source: int,
    delta: float = 1.0,
    num_threads: int = 2,
    min_parallel_size: int = MIN_PARALLEL_SIZE,
) -> SSSPResult:
    """Delta-stepping with the paper's OpenMP-task decomposition.

    Parameters
    ----------
    num_threads:
        Worker count (the paper reports 2 and 4); 1 runs every task
        inline.
    min_parallel_size:
        A relaxation batch with less edge work than this runs as one
        inline task (Python task dispatch would cost more than the
        kernel); 0 chunks every relaxation.  Vector ops chunk only at
        :data:`MIN_VECTOR_PARALLEL_SIZE` and above.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    n = graph.num_vertices
    if not 0 <= source < n:
        raise IndexError(f"source {source} out of range [0, {n})")
    vec_min_size = max(min_parallel_size, MIN_VECTOR_PARALLEL_SIZE)
    run_batch = get_pool(num_threads).run_batch

    # -- matrix split: one coarse task per matrix (the paper's decomposition)
    split_results = run_batch(
        [
            lambda: build_light_csr(graph, delta),
            lambda: build_heavy_csr(graph, delta),
        ]
    )
    (ALp, ALi, ALw), (AHp, AHi, AHw) = split_results

    t = np.full(n, INF, dtype=np.float64)
    t[source] = 0.0
    in_bucket = np.zeros(n, dtype=bool)
    settled_set = np.zeros(n, dtype=bool)
    counters = {"buckets": 0, "phases": 0, "relaxations": 0, "updates": 0}

    vec_chunks = chunk_ranges(n, num_threads) if n >= vec_min_size else [(0, n)]

    def bucket_filter(lo_val: float, hi_val: float):
        """tBi = (lo ≤ t < hi), chunked over the vector."""

        def work(lo, hi):
            np.logical_and(t[lo:hi] >= lo_val, t[lo:hi] < hi_val, out=in_bucket[lo:hi])

        run_batch([_bind_range(work, lo, hi) for lo, hi in vec_chunks])
        return np.nonzero(in_bucket)[0]

    def remaining_min(i_val: float):
        """min over finite t ≥ i·Δ, chunked with per-chunk partials."""

        def work(lo, hi):
            seg = t[lo:hi]
            m = seg[np.isfinite(seg) & (seg >= i_val)]
            return m.min() if len(m) else INF

        partials = run_batch([_bind_range(work, lo, hi) for lo, hi in vec_chunks])
        return min(partials)

    def relax(indptr, indices, weights, frontier, lo_val, hi_val, track_bucket):
        """Chunked fused relaxation with a sequential partial merge."""
        edge_costs = indptr[frontier + 1] - indptr[frontier]
        total = int(edge_costs.sum())
        if total == 0:
            return np.empty(0, dtype=np.int64)
        counters["relaxations"] += total
        nchunks = num_threads if total >= min_parallel_size else 1
        spans = chunk_by_cost(edge_costs, nchunks)

        def work(flo, fhi):
            part = frontier[flo:fhi]
            starts = indptr[part]
            lengths = indptr[part + 1] - starts
            tot = int(lengths.sum())
            if tot == 0:
                return None
            offsets = np.repeat(np.cumsum(lengths) - lengths, lengths)
            flat = np.arange(tot, dtype=np.int64) - offsets + np.repeat(starts, lengths)
            targets = indices[flat]
            dists = np.repeat(t[part], lengths) + weights[flat]
            # chunk tasks run concurrently: no shared workspace, so the
            # allocation-free argsort kernel is the right default here
            return min_by_target(targets, dists)

        partials = [p for p in run_batch([_bind_range(work, flo, fhi) for flo, fhi in spans]) if p is not None]
        if not partials:
            return np.empty(0, dtype=np.int64)
        if len(partials) == 1:
            uts, ubest = partials[0]
        else:
            # sequential merge of per-chunk minima (small: ≤ unique targets)
            all_t = np.concatenate([p[0] for p in partials])
            all_d = np.concatenate([p[1] for p in partials])
            uts, ubest = min_by_target(all_t, all_d)
        improved = ubest < t[uts]
        uts, ubest = uts[improved], ubest[improved]
        counters["updates"] += len(uts)
        t[uts] = ubest
        if track_bucket:
            reenter = (ubest >= lo_val) & (ubest < hi_val)
            return uts[reenter]
        return uts

    i = 0
    while True:
        finite_min = remaining_min(i * delta)
        if not np.isfinite(finite_min):
            break
        i = max(i, int(finite_min // delta))
        lo_val, hi_val = i * delta, (i + 1) * delta
        counters["buckets"] += 1
        frontier = bucket_filter(lo_val, hi_val)
        settled_set[:] = False
        while len(frontier):
            counters["phases"] += 1
            settled_set[frontier] = True
            frontier = relax(ALp, ALi, ALw, frontier, lo_val, hi_val, track_bucket=True)
        settled = np.nonzero(settled_set)[0]
        if len(settled):
            counters["phases"] += 1
            relax(AHp, AHi, AHw, settled, lo_val, hi_val, track_bucket=False)
        i += 1

    result = SSSPResult(
        distances=t,
        source=source,
        delta=delta,
        method=f"parallel[{num_threads}]",
        buckets_processed=counters["buckets"],
        phases=counters["phases"],
        relaxations=counters["relaxations"],
        updates=counters["updates"],
    )
    result.extra["num_threads"] = num_threads
    return result


def _bind_range(fn, lo, hi):
    return lambda: fn(lo, hi)
