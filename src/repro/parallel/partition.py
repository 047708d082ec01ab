"""Work partitioning: even and cost-balanced contiguous chunking."""

from __future__ import annotations

import numpy as np

__all__ = ["chunk_ranges", "chunk_by_cost"]


def chunk_ranges(n: int, num_chunks: int) -> list[tuple[int, int]]:
    """Split ``range(n)`` into up to *num_chunks* contiguous, evenly-sized
    half-open ranges — the paper's "evenly-sized tasks" for vector ops."""
    if n <= 0 or num_chunks <= 0:
        return []
    num_chunks = min(num_chunks, n)
    bounds = np.linspace(0, n, num_chunks + 1).astype(np.int64)
    return [(int(bounds[k]), int(bounds[k + 1])) for k in range(num_chunks) if bounds[k + 1] > bounds[k]]


def chunk_by_cost(costs: np.ndarray, num_chunks: int) -> list[tuple[int, int]]:
    """Split items into contiguous ranges of roughly equal total *cost*.

    Used to chunk CSR rows so each task sees a similar number of edges
    (plain ``chunk_ranges`` over rows would be badly skewed on power-law
    graphs).
    """
    n = len(costs)
    if n == 0 or num_chunks <= 0:
        return []
    total = float(np.sum(costs))
    if total <= 0:
        return chunk_ranges(n, num_chunks)
    cum = np.cumsum(costs, dtype=np.float64)
    targets = np.linspace(0, total, num_chunks + 1)[1:-1]
    cuts = np.searchsorted(cum, targets, side="left") + 1
    bounds = np.unique(np.concatenate([[0], cuts, [n]]))
    # a run of zero-cost items between cuts (or at the tail) would become
    # its own zero-work chunk, wasting a worker/shard slot: keep a cut
    # only while it advances the cumulative cost, and fold a zero-cost
    # tail into the last real chunk
    csum = np.concatenate([[0.0], cum])
    merged = [0]
    for b in bounds[1:-1]:
        if csum[b] > csum[merged[-1]]:
            merged.append(int(b))
    if len(merged) > 1 and csum[n] <= csum[merged[-1]]:
        merged.pop()
    merged.append(n)
    return [(merged[k], merged[k + 1]) for k in range(len(merged) - 1)]
