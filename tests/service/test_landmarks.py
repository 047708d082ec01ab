"""Landmark index: farthest-point selection and bound admissibility.

The load-bearing property: for every queried pair, the true shortest
distance lies inside ``[lower_bound, upper_bound]`` — the upper bound is
the length of a real s→landmark→t walk, the lower bound the ALT triangle
bound.
"""

import numpy as np
import pytest

from repro.graphs import datasets, generators
from repro.graphs.graph import Graph
from repro.service.landmarks import LandmarkIndex, select_landmarks
from repro.sssp import dijkstra


class TestSelection:
    def test_returns_valid_vertices(self):
        g = datasets.load("ci-ws")
        marks = select_landmarks(g, 6)
        assert 1 <= len(marks) <= 6
        assert len(np.unique(marks)) == len(marks)
        assert marks.min() >= 0 and marks.max() < g.num_vertices

    def test_farthest_spreads_over_grid(self):
        g = generators.grid_2d(10, 10)
        marks = select_landmarks(g, 4)
        # farthest-point sampling on a mesh never picks adjacent corners
        d = dijkstra(g, int(marks[0])).distances
        assert d[marks[1]] >= 5

    def test_zero_landmarks_rejected(self):
        with pytest.raises(ValueError):
            select_landmarks(datasets.load("ci-ws"), 0)


class TestBounds:
    def test_bounds_bracket_true_distance(self):
        g = datasets.load("ci-ws")
        index = LandmarkIndex.build(g, num_landmarks=4)
        rng = np.random.default_rng(5)
        for s in rng.choice(g.num_vertices, size=5, replace=False):
            true = dijkstra(g, int(s)).distances
            for t in rng.choice(g.num_vertices, size=20, replace=False):
                est = index.estimate(int(s), int(t))
                if np.isfinite(true[t]):
                    assert est.lower <= true[t] + 1e-9, (s, t)
                    assert est.upper >= true[t] - 1e-9, (s, t)

    def test_upper_bound_admissible_on_weighted_digraph(self):
        rng = np.random.default_rng(9)
        m = 400
        g = Graph.from_edges(
            rng.integers(0, 80, m), rng.integers(0, 80, m),
            rng.uniform(0.1, 1.0, m), n=80,
        )
        index = LandmarkIndex.build(g, num_landmarks=5)
        for s in (0, 7, 33):
            true = dijkstra(g, s).distances
            for t in range(80):
                ub = index.upper_bound(s, t)
                if np.isfinite(true[t]):
                    assert ub >= true[t] - 1e-9
                # the bound is itself a real walk length, so it is also
                # infinite whenever the pair is truly disconnected
                else:
                    assert np.isinf(ub)

    def test_identity_query(self):
        g = datasets.load("ci-ws")
        index = LandmarkIndex.build(g, num_landmarks=2)
        est = index.estimate(3, 3)
        assert est.lower == est.upper == 0.0

    def test_disconnected_pair_is_inf_upper(self):
        g = Graph.from_edges([0, 2], [1, 3], n=4)
        index = LandmarkIndex.build(g, num_landmarks=2)
        assert np.isinf(index.upper_bound(0, 3))

    def test_disconnected_estimate_emits_no_warning(self):
        """inf - inf inside the lower bound must stay silent (embedders
        running with warnings-as-errors would otherwise crash)."""
        import warnings

        g = Graph.from_edges([0, 1, 3, 4], [1, 2, 4, 5], n=6)
        index = LandmarkIndex.build(g, num_landmarks=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = index.estimate(0, 4)
        assert np.isinf(est.upper)

    def test_out_of_range_query(self):
        g = datasets.load("ci-ws")
        index = LandmarkIndex.build(g, num_landmarks=2)
        with pytest.raises(IndexError):
            index.estimate(0, 10_000)
