"""Partitioners and the ShardedGraph container on every graph shape the
stepper must survive: disconnected, power-law, single-vertex, zero-weight."""

import numpy as np
import pytest

from repro.graphs import generators as gen
from repro.graphs.graph import Graph
from repro.shard import (
    PARTITIONERS,
    ShardedGraph,
    bfs_locality_partition,
    contiguous_partition,
    partition_graph,
    shard_graph,
)


def _power_law_graph(n=300, m=3, seed=7) -> Graph:
    return gen.barabasi_albert(n, m_per_node=m, seed=seed)


def _disconnected_graph() -> Graph:
    # two components + two fully isolated vertices
    return Graph.from_edges(
        [0, 1, 3, 4, 5], [1, 2, 4, 5, 3], [1.0, 2.0, 1.0, 1.0, 1.0], n=8
    )


def _zero_weight_graph() -> Graph:
    return Graph.from_edges(
        [0, 1, 2, 3, 0], [1, 2, 3, 0, 3], [0.0, 0.0, 1.0, 0.0, 0.0], n=5
    )


class TestOwnerArrays:
    """Both partitioners must produce a total, valid ownership map."""

    @pytest.mark.parametrize("partitioner", sorted(PARTITIONERS))
    @pytest.mark.parametrize(
        "graph",
        [_power_law_graph(), _disconnected_graph(), _zero_weight_graph(),
         gen.grid_2d(6, 6), Graph.empty(1), Graph.empty(5)],
        ids=["power-law", "disconnected", "zero-weight", "grid", "single-vertex", "edgeless"],
    )
    @pytest.mark.parametrize("k", [1, 2, 3, 7])
    def test_every_vertex_owned(self, partitioner, graph, k):
        owner = PARTITIONERS[partitioner](graph, k)
        assert owner.shape == (graph.num_vertices,)
        assert owner.min(initial=0) >= 0
        assert owner.max(initial=0) < max(1, min(k, graph.num_vertices))

    def test_contiguous_is_contiguous(self):
        owner = contiguous_partition(gen.grid_2d(8, 8), 4)
        # contiguous ranges: owner ids are non-decreasing over vertex ids
        assert np.all(np.diff(owner) >= 0)

    def test_contiguous_balances_edge_mass(self):
        g = _power_law_graph()
        sg = partition_graph(g, 4, "contiguous")
        assert sg.num_shards >= 2
        # no shard carries more than ~2x the ideal even share
        assert sg.edge_balance() < 2.0

    def test_bfs_covers_disconnected_components(self):
        g = _disconnected_graph()
        owner = bfs_locality_partition(g, 2)
        assert owner.shape == (8,)  # isolated vertices owned too

    def test_bfs_beats_or_matches_random_labelling_on_mesh(self):
        # scramble the mesh's vertex ids: contiguous-by-id partitioning is
        # then meaningless, but BFS rediscovers the locality
        g = gen.grid_2d(10, 10)
        rng = np.random.default_rng(3)
        perm = rng.permutation(g.num_vertices)
        src, dst, w = g.to_edges()
        scrambled = Graph.from_edges(perm[src], perm[dst], w, n=g.num_vertices)
        cut_contig = partition_graph(scrambled, 4, "contiguous").num_cut_edges
        cut_bfs = partition_graph(scrambled, 4, "bfs").num_cut_edges
        assert cut_bfs < cut_contig

    def test_unknown_partitioner_enumerates_registry(self):
        with pytest.raises(ValueError) as excinfo:
            partition_graph(gen.grid_2d(2, 2), 2, "metis")
        message = str(excinfo.value)
        assert "metis" in message
        for name in PARTITIONERS:
            assert name in message

    def test_rejects_nonpositive_shard_count(self):
        with pytest.raises(ValueError):
            partition_graph(gen.grid_2d(2, 2), 0)


class TestShardedGraph:
    @pytest.mark.parametrize("partitioner", sorted(PARTITIONERS))
    @pytest.mark.parametrize(
        "graph",
        [_power_law_graph(), _disconnected_graph(), _zero_weight_graph(), gen.grid_2d(6, 6)],
        ids=["power-law", "disconnected", "zero-weight", "grid"],
    )
    def test_slices_partition_the_edge_set(self, partitioner, graph):
        """Every stored edge appears in exactly one shard's CSR slice,
        with its weight intact; slices are full height, with empty rows
        for vertices owned elsewhere."""
        sg = partition_graph(graph, 3, partitioner)
        n = graph.num_vertices
        assert sum(s.num_edges for s in sg.shards) == graph.num_edges
        # reassemble (src, dst, w) triples from the slices and compare
        srcs, dsts, ws = [], [], []
        for s in sg.shards:
            assert np.array_equal(sg.owner[s.owned], np.full(len(s.owned), s.id))
            assert len(s.indptr) == n + 1
            lengths = np.diff(s.indptr)
            assert not lengths[sg.owner != s.id].any()
            srcs.append(np.repeat(np.arange(n), lengths))
            dsts.append(s.indices)
            ws.append(s.weights)
        got_s, got_d, got_w = map(np.concatenate, (srcs, dsts, ws))
        order = np.lexsort((got_d, got_s))
        want_s, want_d, want_w = graph.to_edges()
        assert np.array_equal(got_s[order], want_s)
        assert np.array_equal(got_d[order], want_d)
        assert np.array_equal(got_w[order], want_w)

    def test_cut_edges_and_halo_consistent(self):
        g = gen.grid_2d(6, 6)
        sg = partition_graph(g, 3, "contiguous")
        for s in sg.shards:
            # cut mask flags exactly the targets owned elsewhere
            assert np.array_equal(s.cut_mask, sg.owner[s.indices] != s.id)
            assert np.array_equal(s.halo, np.unique(s.indices[s.cut_mask]))
            assert not np.isin(s.halo, s.owned).any()
        assert sg.num_cut_edges == sum(s.num_cut_edges for s in sg.shards)
        assert 0.0 < sg.cut_fraction < 1.0

    def test_single_vertex_graph(self):
        sg = partition_graph(Graph.empty(1), 3)
        assert sg.num_shards == 1
        assert sg.shards[0].num_owned == 1
        assert sg.num_cut_edges == 0
        assert sg.cut_fraction == 0.0

    def test_one_shard_has_no_cut(self):
        sg = partition_graph(_power_law_graph(), 1)
        assert sg.num_shards == 1
        assert sg.num_cut_edges == 0
        assert sg.shards[0].num_edges == sg.graph.num_edges

    def test_staleness_tracks_epoch(self):
        g = gen.grid_2d(4, 4)
        sg = partition_graph(g, 2)
        assert not sg.is_stale()
        g.epoch += 1  # what apply_edge_updates does
        assert sg.is_stale()

    def test_custom_owner_array(self):
        g = _disconnected_graph()
        owner = np.array([0, 0, 1, 1, 0, 1, 0, 1])
        sg = shard_graph(g, owner, partitioner="handmade")
        assert isinstance(sg, ShardedGraph)
        assert sg.partitioner == "handmade"
        assert sg.num_shards == 2
        assert np.array_equal(sg.owner, owner)

    def test_bad_owner_array_rejected(self):
        g = gen.grid_2d(2, 2)
        with pytest.raises(ValueError):
            shard_graph(g, np.zeros(3, dtype=np.int64))
        with pytest.raises(ValueError):
            shard_graph(g, np.array([0, -1, 0, 0]))
