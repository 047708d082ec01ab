"""Baseline SSSP algorithms: Dijkstra and Bellman–Ford.

Dijkstra (binary-heap, lazy deletion) is the correctness oracle for every
delta-stepping implementation and the §VII comparison point (Δ=1 on unit
weights makes delta-stepping process vertices in exactly Dijkstra's
distance order).  Bellman–Ford is the fully edge-centric label-correcting
baseline — delta-stepping with Δ=∞ degenerates to it, which the Δ-sweep
ablation exercises.
"""

from __future__ import annotations

import heapq

import numpy as np

from ..graphs.graph import Graph
from ..kernels import RelaxWorkspace, check_kernel, min_by_target
from .result import INF, SSSPResult

__all__ = ["dijkstra", "bellman_ford"]


class NegativeWeightError(ValueError):
    """Dijkstra requires non-negative weights; Bellman–Ford found a
    negative cycle."""


def dijkstra(graph: Graph, source: int, return_predecessors: bool = False) -> SSSPResult:
    """Textbook Dijkstra with a binary heap and lazy deletion.

    O((V+E) log V).  Python-loop based on purpose: it is the *trusted
    oracle*, written for obviousness rather than speed, and structurally
    independent of all the vectorized implementations it validates.
    """
    n = graph.num_vertices
    if not 0 <= source < n:
        raise IndexError(f"source {source} out of range [0, {n})")
    if len(graph.weights) and graph.weights.min() < 0:
        raise NegativeWeightError("Dijkstra requires non-negative weights")
    dist = np.full(n, INF, dtype=np.float64)
    pred = np.full(n, -1, dtype=np.int64) if return_predecessors else None
    dist[source] = 0.0
    settled = np.zeros(n, dtype=bool)
    heap: list[tuple[float, int]] = [(0.0, source)]
    indptr, indices, weights = graph.csr()
    relaxations = 0
    updates = 0
    while heap:
        d, u = heapq.heappop(heap)
        if settled[u]:
            continue
        settled[u] = True
        lo, hi = indptr[u], indptr[u + 1]
        for v, w in zip(indices[lo:hi].tolist(), weights[lo:hi].tolist()):
            relaxations += 1
            nd = d + w
            if nd < dist[v]:
                dist[v] = nd
                updates += 1
                if pred is not None:
                    pred[v] = u
                heapq.heappush(heap, (nd, v))
    result = SSSPResult(
        distances=dist,
        source=source,
        delta=float("nan"),
        method="dijkstra",
        relaxations=relaxations,
        updates=updates,
        phases=int(settled.sum()),
    )
    if pred is not None:
        result.extra["predecessors"] = pred
    return result


def bellman_ford(
    graph: Graph, source: int, max_rounds: int | None = None, kernel: str = "auto"
) -> SSSPResult:
    """Edge-centric Bellman–Ford, one vectorized pass over all edges per
    round.

    Each round performs the paper's §II.C "operation on all edges
    simultaneously": candidate distances ``dist[src] + w`` are grouped by
    target with a min-reduction (the shared :mod:`repro.kernels`
    primitive — *kernel* picks argsort vs dense scatter-min; the fat
    all-edge waves here are where the scatter path shines), then merged.
    Converges in at most ``V - 1`` rounds; a change in round ``V`` means
    a negative cycle.
    """
    n = graph.num_vertices
    if not 0 <= source < n:
        raise IndexError(f"source {source} out of range [0, {n})")
    check_kernel(kernel)
    ws = RelaxWorkspace(n)
    src, dst, w = graph.to_edges()
    dist = np.full(n, INF, dtype=np.float64)
    dist[source] = 0.0
    rounds = 0
    relaxations = 0
    updates = 0
    limit = max_rounds if max_rounds is not None else n
    for _ in range(limit):
        rounds += 1
        active = np.isfinite(dist[src])
        if not active.any():
            break
        cand_dst = dst[active]
        cand_val = dist[src[active]] + w[active]
        relaxations += len(cand_dst)
        targets, best = min_by_target(cand_dst, cand_val, workspace=ws, kernel=kernel)
        improved = best < dist[targets]
        if not improved.any():
            break
        dist[targets[improved]] = best[improved]
        updates += int(improved.sum())
    else:
        # ran the full V rounds without convergence check firing
        if max_rounds is None:
            raise NegativeWeightError("negative cycle reachable from source")
    return SSSPResult(
        distances=dist,
        source=source,
        delta=float("inf"),
        method="bellman-ford",
        phases=rounds,
        relaxations=relaxations,
        updates=updates,
    )
