"""The batch contract: K-source results == K independent single-source solves."""

import numpy as np
import pytest

from repro.graphs import datasets
from repro.graphs.graph import Graph
from repro.obs import Recorder
from repro.service.batch import BatchSSSPResult, batch_delta_stepping
from repro.sssp import dijkstra, fused_delta_stepping
from repro.sssp.delta import choose_delta
from repro.stepping import STEPPERS

#: the bucket loop's adversarial inputs (``tests/kernels/test_bucketq.py``
#: and the zero-weight chain), each as (graph, Δ, sources with a repeat)
ADVERSARIAL = {
    "zero-weight-chain": (
        Graph.from_edges([0, 1, 2, 3], [1, 2, 3, 4], [1.0, 0.0, 0.0, 1.0], n=5),
        1.0, [1, 0, 1, 4],
    ),
    "ulp-boundary-drop": (
        Graph.from_edges([0, 1], [1, 2], [15.003965537540262, 1.0], n=3),
        2.500660922923377, [0, 1, 0],
    ),
    "huge-weight-ratio": (
        Graph.from_edges([0, 1], [1, 2], [1.455986969276348e17, 1.0], n=4),
        6.405920704482398, [0, 3, 0, 1],
    ),
}


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

    @pytest.mark.parametrize("method", ["delta", "rho"])
    @pytest.mark.parametrize("case", sorted(ADVERSARIAL))
    def test_rows_and_counters_equal_k_single_solves(self, case, method):
        """Row k is source k's own solve, bit for bit, and each counter is
        the sum of the K solves' counters — for the native stepper and for
        a stepper that takes no Δ."""
        g, delta, sources = ADVERSARIAL[case]
        res = batch_delta_stepping(g, sources, delta=delta, method=method)
        params = {"delta": delta} if method == "delta" else {}
        singles = [STEPPERS[method].solve(g, s, **params) for s in sources]
        assert res.method == f"batch-loop:{method}"
        for k, (s, single) in enumerate(zip(sources, singles)):
            assert np.array_equal(res.distances[k], single.distances), (k, s)
            assert np.array_equal(res.distances[k], dijkstra(g, s).distances), (k, s)
        assert _work(res) == tuple(sum(c) for c in zip(*map(_work, singles)))

    def test_recorder_reaches_every_spec_but_delta(self, grid_graph):
        """A recorded ``delta`` solve would run the NumPy loop, so the
        ``delta`` rows get no recorder; every other spec records its solves."""
        rec = Recorder()
        batch_delta_stepping(grid_graph, [0, 9], method="delta", recorder=rec)
        assert rec.trace.spans() == []
        batch_delta_stepping(grid_graph, [0, 9], method="rho", recorder=rec)
        assert len(rec.trace.spans("solve:rho")) == 2

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

    def test_disconnected_rows_are_inf(self):
        g = Graph.from_edges([0, 3], [1, 4], n=6)
        res = batch_delta_stepping(g, [0, 3])
        assert np.isinf(res.distances[0, 3:]).all()
        assert np.isinf(res.distances[1, :3]).all()
        assert res.distances[0, 1] == 1.0
        assert res.distances[1, 4] == 1.0
