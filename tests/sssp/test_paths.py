"""Unit + property tests for shortest-path reconstruction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.graph import Graph
from repro.sssp import delta_stepping, dijkstra
from repro.sssp.paths import path_weight, predecessor_tree, reconstruct_path


class TestPredecessorTree:
    def test_diamond(self, diamond_graph):
        r = delta_stepping(diamond_graph, 0, 1.0)
        pred = predecessor_tree(diamond_graph, r)
        assert pred.tolist() == [-1, 0, 1, 2]

    def test_unreachable_minus_one(self):
        g = Graph.from_edges([0], [1], n=3)
        r = delta_stepping(g, 0, 1.0)
        assert predecessor_tree(g, r)[2] == -1

    def test_tie_break_smallest(self):
        # two equal-length routes to 3: via 1 and via 2 -> picks 1
        g = Graph.from_edges([0, 0, 1, 2], [1, 2, 3, 3], [1.0, 1.0, 1.0, 1.0], n=4)
        r = delta_stepping(g, 0, 1.0)
        assert predecessor_tree(g, r)[3] == 1

    def test_matches_dijkstra_tree_distances(self, random_weighted_graph):
        r = delta_stepping(random_weighted_graph, 0, 0.3)
        pred = predecessor_tree(random_weighted_graph, r)
        d = r.distances
        for v in range(random_weighted_graph.num_vertices):
            if pred[v] >= 0:
                nbrs, wts = random_weighted_graph.neighbors(pred[v])
                k = np.searchsorted(nbrs, v)
                assert nbrs[k] == v
                assert np.isclose(d[v], d[pred[v]] + wts[k])


class TestReconstructPath:
    def test_diamond_route(self, diamond_graph):
        r = delta_stepping(diamond_graph, 0, 1.0)
        path = reconstruct_path(diamond_graph, r, 3)
        assert path == [0, 1, 2, 3]
        assert np.isclose(path_weight(diamond_graph, path), r.distances[3])

    def test_source_path(self, diamond_graph):
        r = delta_stepping(diamond_graph, 0, 1.0)
        assert reconstruct_path(diamond_graph, r, 0) == [0]

    def test_unreachable_empty(self):
        g = Graph.from_edges([0], [1], n=3)
        r = delta_stepping(g, 0, 1.0)
        assert reconstruct_path(g, r, 2) == []

    def test_disconnected_component_targets(self):
        """A whole second component: every vertex in it reconstructs to an
        empty path (no exception), from every implementation's result."""
        # component A: 0-1-2 chain; component B: 3-4-5 cycle
        g = Graph.from_edges(
            [0, 1, 3, 4, 5], [1, 2, 4, 5, 3], [1.0, 2.0, 1.0, 1.0, 1.0], n=6
        )
        for method in ("delta", "graphblas", "meyer-sanders"):
            r = delta_stepping(g, 0, 1.0, method=method)
            assert not np.isfinite(r.distances[3:]).any()
            for target in (3, 4, 5):
                assert reconstruct_path(g, r, target) == []
            # reachable side still works
            assert reconstruct_path(g, r, 2) == [0, 1, 2]

    def test_disconnected_component_predecessors(self):
        g = Graph.from_edges(
            [0, 1, 3, 4, 5], [1, 2, 4, 5, 3], [1.0, 2.0, 1.0, 1.0, 1.0], n=6
        )
        r = delta_stepping(g, 0, 1.0)
        pred = predecessor_tree(g, r)
        # unreachable vertices have no predecessor, even though the
        # cycle's edges are "tight" among themselves (inf == inf + w is
        # not a tight edge because the source distance is not finite)
        assert pred[3:].tolist() == [-1, -1, -1]

    def test_isolated_source_all_unreachable(self):
        g = Graph.from_edges([1], [2], n=4)  # source 0 has no out-edges
        r = delta_stepping(g, 0, 1.0)
        assert reconstruct_path(g, r, 0) == [0]
        for target in (1, 2, 3):
            assert reconstruct_path(g, r, target) == []

    def test_target_out_of_range(self, diamond_graph):
        r = delta_stepping(diamond_graph, 0, 1.0)
        with pytest.raises(IndexError):
            reconstruct_path(diamond_graph, r, 99)

    def test_path_weight_validates_edges(self, diamond_graph):
        with pytest.raises(ValueError):
            path_weight(diamond_graph, [0, 3])

    def test_path_weight_on_unsorted_rows(self):
        """Regression: ``path_weight`` binary-searched each row, silently
        reporting "no edge" for valid edges when the CSR rows were
        unsorted (hand-built or adopted structures)."""
        g = Graph(
            indptr=np.array([0, 2, 3, 3]),
            indices=np.array([2, 1, 2]),  # row 0 targets [2, 1] — unsorted
            weights=np.array([5.0, 1.0, 1.0]),
        )
        assert g.edge_weight(0, 1) == 1.0
        assert g.edge_weight(0, 2) == 5.0
        assert path_weight(g, [0, 1, 2]) == 2.0
        assert path_weight(g, [0, 2]) == 5.0
        with pytest.raises(ValueError):
            path_weight(g, [1, 0])

    def test_unsorted_rows_round_trip_reconstruction(self):
        """The full chain — solve, predecessor tree, reconstruct, weigh —
        works on a graph whose rows were never canonicalized."""
        rng = np.random.default_rng(3)
        n, m = 40, 160
        sorted_g = Graph.from_edges(
            rng.integers(0, n, m), rng.integers(0, n, m),
            rng.uniform(0.1, 1.0, m), n=n,
        )
        perm_g = Graph(
            indptr=sorted_g.indptr.copy(),
            indices=sorted_g.indices.copy(),
            weights=sorted_g.weights.copy(),
        )
        # shuffle every row in place
        for v in range(n):
            lo, hi = perm_g.indptr[v], perm_g.indptr[v + 1]
            p = rng.permutation(hi - lo)
            perm_g.indices[lo:hi] = perm_g.indices[lo:hi][p]
            perm_g.weights[lo:hi] = perm_g.weights[lo:hi][p]
        assert not perm_g.has_canonical_rows() or perm_g.num_edges < 2
        r = delta_stepping(perm_g, 0, 0.5)
        assert np.array_equal(r.distances, delta_stepping(sorted_g, 0, 0.5).distances)
        for target in range(n):
            path = reconstruct_path(perm_g, r, target)
            if np.isfinite(r.distances[target]):
                assert np.isclose(path_weight(perm_g, path), r.distances[target])

    @given(st.integers(0, 2**31 - 1), st.integers(2, 30))
    @settings(max_examples=20, deadline=None)
    def test_every_reached_target_reconstructs(self, seed, n):
        rng = np.random.default_rng(seed)
        m = 4 * n
        g = Graph.from_edges(
            rng.integers(0, n, m), rng.integers(0, n, m),
            rng.uniform(0.1, 1.0, m), n=n,
        )
        r = delta_stepping(g, 0, 0.5)
        for target in range(n):
            path = reconstruct_path(g, r, target)
            if np.isfinite(r.distances[target]):
                assert path[0] == 0 and path[-1] == target
                assert np.isclose(path_weight(g, path), r.distances[target])
            else:
                assert path == []
