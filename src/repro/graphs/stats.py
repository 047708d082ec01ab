"""Graph summary statistics (the numbers the paper's figures sort by).

Fig. 3 and Fig. 4 order their x-axes by ascending node count and overlay
node counts on a secondary axis; :func:`graph_stats` computes those plus
the structural quantities (degree distribution, component count,
effective diameter proxy) that ``repro suite`` prints to argue the
synthetic suite spans the same regimes as SNAP.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph

__all__ = ["GraphStats", "graph_stats", "connected_components", "bfs_levels"]


@dataclass(frozen=True)
class GraphStats:
    """Summary numbers for one graph."""

    name: str
    num_vertices: int
    num_edges_stored: int
    num_edges_undirected: int
    avg_degree: float
    max_degree: int
    min_weight: float
    max_weight: float
    unit_weights: bool
    num_components: int
    largest_component: int
    bfs_eccentricity_from_0: int

    def as_row(self) -> dict:
        """Flat dict for tabular reports."""
        return {
            "graph": self.name,
            "|V|": self.num_vertices,
            "stored |E|": self.num_edges_stored,
            "deg_avg": round(self.avg_degree, 2),
            "deg_max": self.max_degree,
            "unit_w": self.unit_weights,
            "components": self.num_components,
            "ecc(0)": self.bfs_eccentricity_from_0,
        }


def bfs_levels(g: Graph, source: int = 0) -> np.ndarray:
    """BFS level of every vertex from *source* (-1 when unreachable).

    Frontier-at-a-time with NumPy set operations — O(|E|) total work.
    """
    n = g.num_vertices
    level = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return level
    level[source] = 0
    frontier = np.array([source], dtype=np.int64)
    depth = 0
    indptr, indices = g.indptr, g.indices
    while len(frontier):
        starts = indptr[frontier]
        ends = indptr[frontier + 1]
        lengths = ends - starts
        total = int(lengths.sum())
        if total == 0:
            break
        offsets = np.repeat(np.cumsum(lengths) - lengths, lengths)
        flat = np.arange(total, dtype=np.int64) - offsets + np.repeat(starts, lengths)
        nbrs = indices[flat]
        new = np.unique(nbrs[level[nbrs] < 0])
        if len(new) == 0:
            break
        depth += 1
        level[new] = depth
        frontier = new
    return level


def connected_components(g: Graph) -> np.ndarray:
    """Component label per vertex (treats edges as undirected)."""
    n = g.num_vertices
    labels = np.full(n, -1, dtype=np.int64)
    # ensure symmetric traversal even for directed storage
    sym = g if not g.directed else _symmetrized(g)
    comp = 0
    for start in range(n):
        if labels[start] >= 0:
            continue
        levels = bfs_levels(sym, start)
        members = np.nonzero((levels >= 0) & (labels < 0))[0]
        labels[members] = comp
        comp += 1
    return labels


def _symmetrized(g: Graph) -> Graph:
    src, dst, w = g.to_edges()
    return Graph.from_edges(
        np.concatenate([src, dst]),
        np.concatenate([dst, src]),
        np.concatenate([w, w]),
        n=g.num_vertices,
        name=g.name,
        directed=True,
    )


def graph_stats(g: Graph) -> GraphStats:
    """Compute a :class:`GraphStats` summary (O(|V| + |E|) except components)."""
    deg = g.out_degree()
    labels = connected_components(g)
    sizes = np.bincount(labels) if len(labels) else np.array([0])
    levels = bfs_levels(g, 0) if g.num_vertices else np.array([-1])
    return GraphStats(
        name=g.name,
        num_vertices=g.num_vertices,
        num_edges_stored=g.num_edges,
        num_edges_undirected=g.num_edges // (1 if g.directed else 2),
        avg_degree=float(deg.mean()) if len(deg) else 0.0,
        max_degree=int(deg.max()) if len(deg) else 0,
        min_weight=g.min_weight,
        max_weight=g.max_weight,
        unit_weights=g.has_unit_weights(),
        num_components=int(labels.max() + 1) if len(labels) else 0,
        largest_component=int(sizes.max()) if len(sizes) else 0,
        bfs_eccentricity_from_0=int(levels.max()),
    )
