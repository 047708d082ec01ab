"""Graph partitioning: vertex ownership maps and per-shard CSR slices.

A *partition* assigns every vertex to exactly one shard (its **owner**);
a shard's slice of the graph is a full-height CSR holding the rows of its
owned vertices (every other row is empty), with column ids kept
**global** — so the shared relax wave gathers out of a slice by global
vertex id, and tells internal targets (owned here) from boundary targets
(owned elsewhere — these cross the frontier exchange,
:mod:`repro.shard.exchange`).  Edge-cut quality is
what the sharded stepper pays for per step, so both partitioners balance
*edge mass* (the CSR row costs), not vertex counts:

- ``contiguous`` — cost-balanced contiguous vertex ranges via
  :func:`repro.parallel.partition.chunk_by_cost` over the CSR row
  lengths.  Zero bookkeeping, and already near-optimal for generators
  that emit locality-correlated ids (meshes, road grids).
- ``bfs`` — breadth-first locality ordering: vertices are enumerated in
  BFS discovery order (component by component, lowest unvisited id as
  each seed) and that *ordering* is cut into cost-balanced runs.  Vertices
  discovered together land in the same shard regardless of their ids,
  which is the standard cheap approximation of a min-cut partitioner
  (SSSP-Del's shard construction makes the same trade).

The registry follows the repo's discovery idiom (``DELTA_STRATEGIES``,
``STEPPERS``): one table (:data:`PARTITIONERS`), one accessor
(:func:`partition_graph`) whose ``ValueError`` enumerates every member.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..graphs.graph import Graph
from ..kernels import cached_row_ids, expand_rows
from ..parallel.partition import chunk_by_cost

__all__ = [
    "Shard",
    "ShardedGraph",
    "PARTITIONERS",
    "contiguous_partition",
    "bfs_locality_partition",
    "partition_graph",
    "shard_graph",
]


def contiguous_partition(graph: Graph, num_shards: int) -> np.ndarray:
    """Owner array from cost-balanced contiguous vertex ranges.

    Costs are the CSR row lengths (out-degrees), so each shard sees a
    similar number of edges even on power-law degree distributions.
    May return fewer than *num_shards* distinct owners when the edge
    mass cannot be split that many ways (zero-cost tails are folded in,
    never emitted as empty shards).
    """
    n = graph.num_vertices
    owner = np.zeros(n, dtype=np.int64)
    ranges = chunk_by_cost(graph.out_degree(), min(num_shards, max(1, n)))
    for k, (lo, hi) in enumerate(ranges):
        owner[lo:hi] = k
    return owner


def bfs_locality_partition(graph: Graph, num_shards: int) -> np.ndarray:
    """Owner array from cost-balanced runs of the BFS discovery order.

    The traversal is undirected (an edge in either direction makes two
    vertices neighbors) so locality survives asymmetric storage; each
    component is explored from its lowest unvisited vertex id, and
    frontier waves enumerate by ascending id — fully deterministic.
    """
    n = graph.num_vertices
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    # symmetric adjacency for the traversal only (owners, not edges)
    src, dst = cached_row_ids(graph), graph.indices
    both_s = np.concatenate([src, dst]).astype(np.int64)
    both_d = np.concatenate([dst, src]).astype(np.int64)
    order_key = np.argsort(both_s, kind="stable")
    both_s, both_d = both_s[order_key], both_d[order_key]
    sym_indptr = np.concatenate(
        [[0], np.cumsum(np.bincount(both_s, minlength=n))]
    ).astype(np.int64)

    deg = graph.out_degree()
    seen = np.zeros(n, dtype=bool)
    order = np.empty(n, dtype=np.int64)
    pos = 0
    for seed_start in range(n):
        if seen[seed_start]:
            continue
        frontier = np.array([seed_start], dtype=np.int64)
        seen[seed_start] = True
        while len(frontier):
            order[pos : pos + len(frontier)] = frontier
            pos += len(frontier)
            flat, _ = expand_rows(sym_indptr, frontier)
            if len(flat) == 0:
                break
            nbrs = both_d[flat]
            new = np.unique(nbrs[~seen[nbrs]])
            seen[new] = True
            frontier = new
    ranges = chunk_by_cost(deg[order], min(num_shards, max(1, n)))
    owner = np.zeros(n, dtype=np.int64)
    for k, (lo, hi) in enumerate(ranges):
        owner[order[lo:hi]] = k
    return owner


#: name → ``(graph, num_shards) -> owner array``; the discovery surface
#: shared by :func:`partition_graph`, the sharded stepper's params, the
#: SHARD bench, and ``repro shard-bench``.
PARTITIONERS = {
    "contiguous": contiguous_partition,
    "bfs": bfs_locality_partition,
}


@dataclass(frozen=True)
class Shard:
    """One shard: its owned vertices and their CSR slice.

    ``indptr``/``indices``/``weights`` are a full-height CSR (``indptr``
    has ``n + 1`` entries) whose only non-empty rows are those of
    ``owned``, with **global** column ids — the sharded step runs the
    shared :func:`repro.stepping.base.relax_window` on it, indexing rows
    by global vertex id.  ``cut_mask`` flags the slice entries whose
    target lives on another shard (the boundary / halo edges), and
    ``halo`` is the sorted set of external vertices those edges reach.
    """

    id: int
    owned: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray
    cut_mask: np.ndarray
    halo: np.ndarray

    @property
    def num_owned(self) -> int:
        return len(self.owned)

    @property
    def num_edges(self) -> int:
        return len(self.indices)

    @property
    def num_cut_edges(self) -> int:
        return int(self.cut_mask.sum())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Shard<{self.id}: |V|={self.num_owned}, |E|={self.num_edges}, "
            f"cut={self.num_cut_edges}>"
        )


@dataclass(frozen=True)
class ShardedGraph:
    """A partitioned view of one :class:`~repro.graphs.graph.Graph`.

    The source graph stays authoritative (the view shares its arrays and
    records the :attr:`~repro.graphs.graph.Graph.epoch` it was built at,
    so consumers can detect staleness after a mutation); the shards add
    the ownership map and per-shard CSR slices the partition-parallel
    stepper executes on.
    """

    graph: Graph
    owner: np.ndarray
    shards: tuple[Shard, ...]
    partitioner: str
    epoch: int = 0
    meta: dict = field(default_factory=dict)

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    @property
    def num_cut_edges(self) -> int:
        """Stored edges whose endpoints live on different shards."""
        return sum(s.num_cut_edges for s in self.shards)

    @property
    def cut_fraction(self) -> float:
        """Cut edges over stored edges (0 on an edgeless graph)."""
        m = self.graph.num_edges
        return self.num_cut_edges / m if m else 0.0

    def is_stale(self) -> bool:
        """True when the graph has mutated since this view was built."""
        return self.graph.epoch != self.epoch

    def edge_balance(self) -> float:
        """Max shard edge count over the ideal even share (1.0 = perfect)."""
        if not self.shards or self.graph.num_edges == 0:
            return 1.0
        ideal = self.graph.num_edges / self.num_shards
        return max(s.num_edges for s in self.shards) / ideal

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardedGraph<{self.graph.name}: {self.num_shards} shards "
            f"({self.partitioner}), cut={self.num_cut_edges} "
            f"({self.cut_fraction:.1%})>"
        )


def shard_graph(graph: Graph, owner: np.ndarray, partitioner: str = "custom") -> ShardedGraph:
    """Materialize the per-shard CSR slices for an explicit *owner* array."""
    n = graph.num_vertices
    owner = np.asarray(owner, dtype=np.int64)
    if owner.shape != (n,):
        raise ValueError(f"owner array must have shape ({n},), got {owner.shape}")
    if n and (owner.min() < 0):
        raise ValueError("owner ids must be non-negative")
    num_shards = int(owner.max()) + 1 if n else 1
    indptr, indices, weights = graph.csr()
    deg = np.diff(indptr)
    shards = []
    for k in range(num_shards):
        is_owned = owner == k
        owned = np.nonzero(is_owned)[0]
        flat, _ = expand_rows(indptr, owned)
        # full height: rows of vertices owned elsewhere are empty
        sub_indptr = np.concatenate([[0], np.cumsum(np.where(is_owned, deg, 0))]).astype(
            np.int64
        )
        if len(flat):
            sub_indices = indices[flat].astype(np.int64)
            sub_weights = weights[flat]
        else:
            sub_indices = np.empty(0, dtype=np.int64)
            sub_weights = np.empty(0, dtype=np.float64)
        cut_mask = owner[sub_indices] != k if len(flat) else np.empty(0, dtype=bool)
        halo = np.unique(sub_indices[cut_mask])
        shards.append(
            Shard(
                id=k,
                owned=owned,
                indptr=sub_indptr,
                indices=sub_indices,
                weights=sub_weights,
                cut_mask=cut_mask,
                halo=halo,
            )
        )
    return ShardedGraph(
        graph=graph,
        owner=owner,
        shards=tuple(shards),
        partitioner=partitioner,
        epoch=graph.epoch,
    )


def partition_graph(graph: Graph, num_shards: int, partitioner: str = "contiguous") -> ShardedGraph:
    """Partition *graph* into (up to) *num_shards* shards.

    Raises ``ValueError`` naming every registered partitioner — the same
    discovery contract as :func:`repro.stepping.get_stepper`.
    """
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    try:
        fn = PARTITIONERS[partitioner]
    except KeyError:
        raise ValueError(
            f"unknown partitioner {partitioner!r}; known: {', '.join(PARTITIONERS)}"
        ) from None
    return shard_graph(graph, fn(graph, num_shards), partitioner=partitioner)
