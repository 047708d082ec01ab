"""Synthetic graph generators: the dataset substitute behind :mod:`repro.graphs.datasets`.

The paper evaluates on SNAP / GraphChallenge graphs: symmetric, undirected,
unit weights, node counts spanning several orders of magnitude.  Without
network access we regenerate that structural spread synthetically:

- :func:`rmat` — Kronecker/R-MAT power-law graphs (the GraphChallenge and
  Graph500 family; good stand-in for social/web SNAP sets);
- :func:`barabasi_albert` — preferential attachment (collaboration nets);
- :func:`erdos_renyi` — uniform random (control family);
- :func:`watts_strogatz` — small-world (mesh+shortcut family);
- :func:`grid_2d` / :func:`road_network` — planar meshes (roadNet family,
  the high-diameter end that stresses delta-stepping's bucket count);
- deterministic micro-graphs (path/star/cycle/complete) for tests.

All generators take a ``seed`` and are fully deterministic; all return
:class:`~repro.graphs.graph.Graph` with unit weights (reweight with
:func:`repro.graphs.weights.assign_weights`).
"""

from __future__ import annotations

import numpy as np

from .graph import Graph

__all__ = [
    "erdos_renyi",
    "barabasi_albert",
    "watts_strogatz",
    "rmat",
    "grid_2d",
    "road_network",
    "path_graph",
    "star_graph",
    "complete_graph",
    "cycle_graph",
]


def erdos_renyi(n: int, avg_degree: float = 8.0, seed: int = 0, directed: bool = False, name: str | None = None) -> Graph:
    """G(n, m) uniform random graph with ``m ≈ n·avg_degree/2`` edges.

    Samples endpoint pairs with replacement and relies on
    :meth:`Graph.from_edges` dedupe — for the sparse regimes used here the
    collision loss is negligible and the construction is O(m).
    """
    rng = np.random.default_rng(seed)
    m = int(n * avg_degree / (1 if directed else 2))
    src = rng.integers(0, n, size=m, dtype=np.int64)
    dst = rng.integers(0, n, size=m, dtype=np.int64)
    return Graph.from_edges(
        src, dst, n=n, name=name or f"er-{n}", directed=directed
    )


def barabasi_albert(n: int, m_per_node: int = 4, seed: int = 0, name: str | None = None) -> Graph:
    """Preferential-attachment power-law graph (undirected).

    Vectorized variant of the classic repeated-endpoints construction:
    each new vertex attaches to ``m_per_node`` endpoints sampled from the
    current edge-endpoint multiset (degree-proportional), processed in
    batches to keep the Python-level loop short.
    """
    if n <= m_per_node:
        return complete_graph(n, name=name or f"ba-{n}")
    rng = np.random.default_rng(seed)
    # seed clique of m_per_node+1 vertices
    seed_n = m_per_node + 1
    seed_src, seed_dst = np.triu_indices(seed_n, k=1)
    endpoints = np.concatenate([seed_src, seed_dst]).astype(np.int64)
    srcs = [seed_src.astype(np.int64)]
    dsts = [seed_dst.astype(np.int64)]
    batch = max(256, n // 64)
    v = seed_n
    while v < n:
        hi = min(v + batch, n)
        count = hi - v
        new_src = np.repeat(np.arange(v, hi, dtype=np.int64), m_per_node)
        # sample targets from the endpoint multiset as of the batch start;
        # clip to vertices that already exist for each new vertex
        targets = endpoints[rng.integers(0, len(endpoints), size=count * m_per_node)]
        exists = targets < new_src  # only attach to older vertices
        # re-sample failures uniformly among older vertices (rare)
        bad = ~exists
        if bad.any():
            targets[bad] = rng.integers(0, v, size=int(bad.sum()))
        srcs.append(new_src)
        dsts.append(targets)
        endpoints = np.concatenate([endpoints, new_src, targets])
        v = hi
    src = np.concatenate(srcs)
    dst = np.concatenate(dsts)
    return Graph.from_edges(src, dst, n=n, name=name or f"ba-{n}", directed=False)


def watts_strogatz(n: int, k: int = 6, beta: float = 0.1, seed: int = 0, name: str | None = None) -> Graph:
    """Small-world ring lattice with rewiring probability *beta*."""
    if k % 2:
        k += 1
    rng = np.random.default_rng(seed)
    base = np.arange(n, dtype=np.int64)
    srcs = []
    dsts = []
    for off in range(1, k // 2 + 1):
        srcs.append(base)
        dsts.append((base + off) % n)
    src = np.concatenate(srcs)
    dst = np.concatenate(dsts)
    rewire = rng.random(len(dst)) < beta
    dst = dst.copy()
    dst[rewire] = rng.integers(0, n, size=int(rewire.sum()))
    return Graph.from_edges(src, dst, n=n, name=name or f"ws-{n}", directed=False)


def rmat(
    scale: int,
    edge_factor: int = 8,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    seed: int = 0,
    directed: bool = False,
    name: str | None = None,
) -> Graph:
    """R-MAT / stochastic-Kronecker graph: ``2**scale`` vertices.

    The Graph500/GraphChallenge generator: each edge picks one quadrant of
    the adjacency matrix per bit, biased by ``(a, b, c, d=1-a-b-c)``.
    Fully vectorized across edges and bits.
    """
    n = 1 << scale
    m = n * edge_factor
    rng = np.random.default_rng(seed)
    d = 1.0 - a - b - c
    if d < 0:
        raise ValueError("rmat probabilities exceed 1")
    src = np.zeros(m, dtype=np.int64)
    dst = np.zeros(m, dtype=np.int64)
    p_right = b + d  # probability the column bit is 1
    p_down_given = np.array([c / (a + c) if a + c else 0.0, d / (b + d) if b + d else 0.0])
    for bit in range(scale):
        r_col = rng.random(m)
        col_bit = (r_col < p_right).astype(np.int64)
        r_row = rng.random(m)
        row_bit = (r_row < p_down_given[col_bit]).astype(np.int64)
        src = (src << 1) | row_bit
        dst = (dst << 1) | col_bit
    # permute vertex ids so degree is not correlated with id
    perm = rng.permutation(n).astype(np.int64)
    src, dst = perm[src], perm[dst]
    return Graph.from_edges(
        src, dst, n=n, name=name or f"rmat-{scale}", directed=directed
    )


def grid_2d(rows: int, cols: int, name: str | None = None) -> Graph:
    """4-connected ``rows × cols`` mesh (undirected, unit weights)."""
    ids = np.arange(rows * cols, dtype=np.int64).reshape(rows, cols)
    right_src = ids[:, :-1].ravel()
    right_dst = ids[:, 1:].ravel()
    down_src = ids[:-1, :].ravel()
    down_dst = ids[1:, :].ravel()
    src = np.concatenate([right_src, down_src])
    dst = np.concatenate([right_dst, down_dst])
    return Graph.from_edges(
        src, dst, n=rows * cols, name=name or f"grid-{rows}x{cols}", directed=False
    )


def road_network(rows: int, cols: int, extra_prob: float = 0.05, drop_prob: float = 0.05, seed: int = 0, name: str | None = None) -> Graph:
    """Road-network stand-in: a 2-D mesh with diagonals added and edges
    removed at small probabilities (high diameter, near-planar — the
    roadNet-* family from SNAP)."""
    rng = np.random.default_rng(seed)
    base = grid_2d(rows, cols)
    src, dst, w = base.to_edges()
    # stored edges are symmetric; operate on the canonical orientation only
    fwd = src < dst
    src, dst = src[fwd], dst[fwd]
    keep = rng.random(len(src)) >= drop_prob
    src, dst = src[keep], dst[keep]
    ids = np.arange(rows * cols, dtype=np.int64).reshape(rows, cols)
    diag_src = ids[:-1, :-1].ravel()
    diag_dst = ids[1:, 1:].ravel()
    pick = rng.random(len(diag_src)) < extra_prob
    src = np.concatenate([src, diag_src[pick]])
    dst = np.concatenate([dst, diag_dst[pick]])
    return Graph.from_edges(
        src, dst, n=rows * cols, name=name or f"road-{rows}x{cols}", directed=False
    )


def path_graph(n: int, name: str | None = None) -> Graph:
    """0 — 1 — 2 — ... — n-1."""
    base = np.arange(n - 1, dtype=np.int64)
    return Graph.from_edges(base, base + 1, n=n, name=name or f"path-{n}", directed=False)


def star_graph(n: int, name: str | None = None) -> Graph:
    """Hub 0 connected to all other vertices."""
    others = np.arange(1, n, dtype=np.int64)
    hub = np.zeros(n - 1, dtype=np.int64)
    return Graph.from_edges(hub, others, n=n, name=name or f"star-{n}", directed=False)


def complete_graph(n: int, name: str | None = None) -> Graph:
    """Every unordered pair connected."""
    src, dst = np.triu_indices(n, k=1)
    return Graph.from_edges(
        src.astype(np.int64), dst.astype(np.int64), n=n, name=name or f"k{n}", directed=False
    )


def cycle_graph(n: int, name: str | None = None) -> Graph:
    """A single n-cycle."""
    base = np.arange(n, dtype=np.int64)
    return Graph.from_edges(base, (base + 1) % n, n=n, name=name or f"cycle-{n}", directed=False)
