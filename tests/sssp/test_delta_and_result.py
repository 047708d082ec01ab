"""Unit tests for Δ heuristics and SSSPResult."""

import numpy as np
import pytest

from repro.graphs import generators as gen
from repro.graphs.graph import Graph
from repro.graphs.weights import assign_weights
from repro.sssp import dijkstra
from repro.sssp.delta import (
    DELTA_STRATEGIES,
    bellman_ford_equivalent_delta,
    choose_delta,
    dijkstra_equivalent_delta,
)
from repro.sssp.fused import fused_delta_stepping
from repro.sssp.result import SSSPResult


class TestDeltaHeuristics:
    def test_auto_unit_weights_is_one(self):
        assert choose_delta(gen.grid_2d(4, 4)) == 1.0

    def test_auto_weighted_uses_meyer_sanders(self):
        g = assign_weights(gen.erdos_renyi(100, seed=1), "uniform", 0.1, 1.0)
        d = choose_delta(g)
        assert 0 < d <= g.max_weight

    def test_dijkstra_equivalent_is_min_weight(self):
        g = assign_weights(gen.erdos_renyi(100, seed=1), "uniform", 0.2, 1.0)
        assert np.isclose(dijkstra_equivalent_delta(g), g.weights[g.weights > 0].min())

    def test_bellman_ford_equivalent_single_bucket(self):
        g = gen.grid_2d(5, 5)
        d = bellman_ford_equivalent_delta(g)
        r = fused_delta_stepping(g, 0, d)
        assert r.buckets_processed == 1
        assert r.same_distances(dijkstra(g, 0))

    def test_all_strategies_positive(self):
        g = assign_weights(gen.erdos_renyi(60, seed=2), "uniform", 0.1, 1.0)
        for name in DELTA_STRATEGIES:
            assert choose_delta(g, name) > 0

    def test_zero_weight_graph_every_strategy(self):
        """Regression: all-zero edge weights crashed ``dijkstra_equivalent_delta``
        (empty ``w[w > 0]`` reduction) and produced Δ=0 from ``avg-weight``;
        every strategy must yield a positive, usable Δ."""
        g = Graph.from_edges([0, 1, 2], [1, 2, 3], [0.0, 0.0, 0.0], n=4)
        for name in DELTA_STRATEGIES:
            d = choose_delta(g, name)
            assert d > 0, f"strategy {name} returned non-positive delta {d}"
            r = fused_delta_stepping(g, 0, d)
            assert np.array_equal(r.distances, [0.0, 0.0, 0.0, 0.0])

    def test_zero_weight_graph_auto(self):
        g = Graph.from_edges([0, 1], [1, 2], [0.0, 0.0], n=3)
        d = choose_delta(g, "auto")
        assert d > 0
        assert np.array_equal(
            fused_delta_stepping(g, 0, d).distances, dijkstra(g, 0).distances
        )

    def test_dijkstra_equivalent_ignores_zero_weights_among_positive(self):
        g = Graph.from_edges([0, 1], [1, 2], [0.0, 0.5], n=3)
        assert dijkstra_equivalent_delta(g) == 0.5

    def test_bellman_ford_equivalent_clamped_on_huge_weights(self):
        """Regression: ``n · max_weight + 1`` overflowed to ``inf`` on huge
        weights, and every solver rejects a non-finite Δ; the heuristic must
        return a large *finite* Δ instead."""
        g = Graph.from_edges([0, 1], [1, 2], [1e308, 1.0], n=3)
        d = bellman_ford_equivalent_delta(g)
        assert np.isfinite(d)
        assert d == np.finfo(np.float64).max
        # the clamped Δ still degenerates to one bucket per the contract
        r = fused_delta_stepping(g, 0, d)
        assert r.buckets_processed == 1
        assert np.array_equal(r.distances, dijkstra(g, 0).distances)

    def test_bellman_ford_equivalent_finite_path_untouched(self):
        """Ordinary graphs keep the exact ``n · max_weight + 1`` value."""
        g = gen.grid_2d(4, 4)
        assert bellman_ford_equivalent_delta(g) == g.num_vertices * 1.0 + 1.0

    def test_unknown_strategy(self):
        with pytest.raises(ValueError) as excinfo:
            choose_delta(gen.grid_2d(2, 2), "magic")
        # the error is a ValueError (not a raw KeyError escaping the
        # registry lookup) and names every valid strategy
        message = str(excinfo.value)
        assert "magic" in message
        for name in ("auto", *DELTA_STRATEGIES):
            assert name in message


class TestSSSPResult:
    def _mk(self, dist, **kw):
        return SSSPResult(
            distances=np.asarray(dist, dtype=float),
            source=0,
            delta=1.0,
            method="test",
            **kw,
        )

    def test_reached(self):
        r = self._mk([0.0, 1.0, np.inf])
        assert r.reached().tolist() == [True, True, False]
        assert r.num_reached == 2

    def test_same_distances_inf_aware(self):
        a = self._mk([0.0, np.inf])
        b = self._mk([0.0, np.inf])
        c = self._mk([0.0, 5.0])
        assert a.same_distances(b)
        assert not a.same_distances(c)

    def test_same_distances_shape_mismatch(self):
        assert not self._mk([0.0]).same_distances(self._mk([0.0, 1.0]))

    def test_max_abs_difference(self):
        a = self._mk([0.0, 1.0, np.inf])
        b = self._mk([0.0, 1.5, np.inf])
        assert np.isclose(a.max_abs_difference(b), 0.5)

    def test_summary_keys(self):
        s = self._mk([0.0]).summary()
        assert {"method", "source", "delta", "reached"} <= set(s)

    def test_distance_to(self):
        assert self._mk([0.0, 3.0]).distance_to(1) == 3.0
