"""Cross-validation of SSSP results.

Three independent checks, used by tests; ``repro run --verify`` runs the
first:

1. **Oracle comparison** — distances must match Dijkstra exactly
   (tolerance for float addition order).
2. **Bellman optimality conditions** — a distance array is *the* shortest
   path solution iff ``d[src]=0``, every edge satisfies
   ``d[v] ≤ d[u] + w(u,v)``, and every reached vertex other than the
   source has a tight incoming edge.  This check needs no oracle.
3. **networkx comparison** — an external implementation, when available.
"""

from __future__ import annotations

import numpy as np

from ..graphs.graph import Graph
from .reference import dijkstra
from .result import SSSPResult

__all__ = ["check_against_dijkstra", "check_optimality_conditions", "check_against_networkx"]


class ValidationError(AssertionError):
    """An SSSP result failed validation."""


def check_against_dijkstra(graph: Graph, result: SSSPResult, rtol: float = 1e-9) -> None:
    """Raise :class:`ValidationError` unless *result* matches the oracle."""
    oracle = dijkstra(graph, result.source)
    if not result.same_distances(oracle, rtol=rtol):
        bad = np.nonzero(
            ~np.isclose(result.distances, oracle.distances, rtol=rtol, equal_nan=True)
            & ~(np.isinf(result.distances) & np.isinf(oracle.distances))
        )[0]
        sample = bad[:5].tolist()
        raise ValidationError(
            f"{result.method}: {len(bad)} distances differ from Dijkstra; "
            f"first offenders {sample}; max |Δ| = {result.max_abs_difference(oracle)}"
        )


def check_optimality_conditions(graph: Graph, result: SSSPResult, atol: float = 1e-9) -> None:
    """Oracle-free Bellman optimality check (see module docstring)."""
    d = result.distances
    src_v = result.source
    if d[src_v] != 0.0:
        raise ValidationError(f"d[source] = {d[src_v]}, expected 0")
    srcs, dsts, w = graph.to_edges()
    du = d[srcs]
    dv = d[dsts]
    finite_u = np.isfinite(du)
    # feasibility: no edge can shortcut the claimed distances
    violation = finite_u & (dv > du + w + atol)
    if violation.any():
        k = int(np.nonzero(violation)[0][0])
        raise ValidationError(
            f"edge ({srcs[k]} -> {dsts[k]}, w={w[k]}) violates triangle "
            f"inequality: d[{dsts[k]}]={dv[k]} > {du[k]} + {w[k]}"
        )
    # reachability closure: finite u with an edge to v forces v finite
    leaks = finite_u & ~np.isfinite(dv)
    if leaks.any():
        k = int(np.nonzero(leaks)[0][0])
        raise ValidationError(
            f"vertex {dsts[k]} unreached despite edge from reached {srcs[k]}"
        )
    # tightness: every reached non-source vertex has a predecessor edge
    # achieving its distance
    reached = np.isfinite(d)
    reached[src_v] = False
    tight_targets = np.zeros(graph.num_vertices, dtype=bool)
    tight = finite_u & np.isclose(dv, du + w, atol=atol, rtol=1e-12)
    tight_targets[dsts[tight]] = True
    loose = reached & ~tight_targets
    if loose.any():
        k = int(np.nonzero(loose)[0][0])
        raise ValidationError(
            f"vertex {k} has d={d[k]} but no incoming edge achieves it"
        )


def check_against_networkx(graph: Graph, result: SSSPResult, rtol: float = 1e-9) -> None:
    """Compare against networkx's Dijkstra (skipped if networkx missing)."""
    try:
        import networkx as nx
    except ImportError:  # pragma: no cover - optional dependency
        return
    G = nx.DiGraph()
    G.add_nodes_from(range(graph.num_vertices))
    srcs, dsts, w = graph.to_edges()
    G.add_weighted_edges_from(zip(srcs.tolist(), dsts.tolist(), w.tolist()))
    lengths = nx.single_source_dijkstra_path_length(G, result.source)
    expected = np.full(graph.num_vertices, np.inf)
    for v, dist in lengths.items():
        expected[v] = dist
    fin = np.isfinite(expected)
    if not np.array_equal(fin, np.isfinite(result.distances)):
        raise ValidationError(f"{result.method}: reachability differs from networkx")
    if not np.allclose(result.distances[fin], expected[fin], rtol=rtol):
        raise ValidationError(f"{result.method}: distances differ from networkx")
