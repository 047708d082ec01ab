"""The batch engine's contract: K-source results == K independent Dijkstra runs."""

import numpy as np
import pytest

from repro.graphs import datasets
from repro.graphs.graph import Graph
from repro.service.batch import (
    BatchSSSPResult,
    batch_delta_stepping,
    batch_fused_delta_stepping,
)
from repro.sssp import dijkstra, fused_delta_stepping
from repro.sssp.delta import choose_delta


def _work(r):
    """The work counters a batch and a single-source result share."""
    return r.buckets_processed, r.phases, r.relaxations, r.updates


class TestBatchMatchesDijkstra:
    @pytest.mark.parametrize("name", ["ci-ba", "ci-rmat", "ci-road", "ci-ws", "ci-er"])
    def test_ci_suite_unit_weights(self, name):
        g = datasets.load(name)
        rng = np.random.default_rng(hash(name) % 2**32)
        sources = rng.choice(g.num_vertices, size=8, replace=False)
        res = batch_delta_stepping(g, sources)
        for k, s in enumerate(sources):
            oracle = dijkstra(g, int(s)).distances
            assert np.array_equal(res.distances[k], oracle), f"{name} row {k}"
        one = batch_delta_stepping(g, sources[:1])
        assert _work(one) == _work(fused_delta_stepping(g, int(sources[0]), one.delta))

    def test_weighted_graph(self, random_weighted_graph):
        # the zero-weight chain 0 -> 1 -> 2 puts vertex 1 at distance exactly 0
        chain = Graph.from_edges([0, 1], [1, 2], [0.0, 0.5], n=3)
        for g, sources, delta in [
            (random_weighted_graph, [0, 5, 17, 99], 0.3),
            (chain, [0, 0, 1, 2], 0.25),
        ]:
            res = batch_delta_stepping(g, sources, delta=delta)
            for k, s in enumerate(sources):
                assert np.array_equal(res.distances[k], dijkstra(g, s).distances), (k, s)

    def test_duplicate_sources_allowed(self, diamond_graph):
        res = batch_delta_stepping(diamond_graph, [0, 0, 2])
        assert np.array_equal(res.distances[0], res.distances[1])

    def test_matches_single_source_fused(self, grid_graph):
        sources = [0, 13, 63]
        res = batch_delta_stepping(grid_graph, sources)
        for k, s in enumerate(sources):
            single = fused_delta_stepping(grid_graph, s, 1.0)
            assert np.array_equal(res.distances[k], single.distances)
            # a one-source batch runs the single-source loop's schedule
            one = batch_delta_stepping(grid_graph, [s], delta=1.0)
            assert _work(one) == _work(single), s


class TestBatchShape:
    def test_result_for_repackages_rows(self, diamond_graph):
        res = batch_delta_stepping(diamond_graph, [0, 1])
        single = res.result_for(1)
        assert single.source == 1
        assert np.array_equal(single.distances, res.distances[1])
        with pytest.raises(IndexError):
            res.result_for(2)

    def test_counters_aggregate(self, grid_graph):
        res = batch_delta_stepping(grid_graph, [0, 63])
        assert res.num_sources == 2
        assert res.phases > 0
        assert res.relaxations > 0
        assert isinstance(res, BatchSSSPResult)

    def test_shared_waves_fewer_phases_than_sum(self, grid_graph):
        """The batching win: K sources share waves instead of summing them."""
        sources = [0, 7, 56, 63]
        batch = batch_delta_stepping(grid_graph, sources)
        single_phases = sum(
            fused_delta_stepping(grid_graph, s, 1.0).phases for s in sources
        )
        assert batch.phases < single_phases

    def test_delta_auto_selection(self, grid_graph):
        res = batch_delta_stepping(grid_graph, [0])
        assert res.delta == choose_delta(grid_graph)


class TestBatchValidation:
    def test_empty_sources_rejected(self, diamond_graph):
        with pytest.raises(ValueError):
            batch_delta_stepping(diamond_graph, [])

    def test_out_of_range_source(self, diamond_graph):
        with pytest.raises(IndexError):
            batch_delta_stepping(diamond_graph, [0, 99])

    def test_nonpositive_delta(self, diamond_graph):
        with pytest.raises(ValueError):
            batch_delta_stepping(diamond_graph, [0], delta=0.0)

    def test_unknown_method(self, diamond_graph):
        with pytest.raises(ValueError, match="unknown batch method"):
            batch_delta_stepping(diamond_graph, [0], method="magic")

    def test_state_size_guard(self):
        g = Graph.empty(1 << 20)
        with pytest.raises(ValueError, match="chunk the sources"):
            batch_fused_delta_stepping(g, list(range(200)), 1.0)

    def test_disconnected_rows_are_inf(self):
        g = Graph.from_edges([0, 3], [1, 4], n=6)
        res = batch_delta_stepping(g, [0, 3])
        assert np.isinf(res.distances[0, 3:]).all()
        assert np.isinf(res.distances[1, :3]).all()
        assert res.distances[0, 1] == 1.0
        assert res.distances[1, 4] == 1.0
