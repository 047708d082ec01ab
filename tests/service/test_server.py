"""QueryService + QueryPlanner: coalescing, routing, caching, stats."""

import numpy as np
import pytest

from repro.dynamic import apply_edge_updates
from repro.graphs import datasets, generators
from repro.graphs.graph import Graph
from repro.service import (
    MAX_BATCH_SIZE,
    DistanceCache,
    LandmarkIndex,
    Query,
    QueryPlanner,
    QueryService,
)
from repro.sssp import dijkstra


@pytest.fixture(scope="module")
def ws_graph():
    return datasets.load("ci-ws")


@pytest.fixture(scope="module")
def ws_oracle(ws_graph):
    return dijkstra(ws_graph, 0).distances


class TestPlanner:
    def test_coalesces_duplicate_sources(self):
        planner = QueryPlanner()
        plan = planner.plan([Query(0, 1), Query(0, 2), Query(0, 3)])
        assert plan.num_exact_sources == 1

    def test_chunks_to_batch_size(self):
        planner = QueryPlanner()
        plan = planner.plan([Query(s) for s in range(2 * MAX_BATCH_SIZE + 3)])
        assert [len(b) for b in plan.batches] == [MAX_BATCH_SIZE, MAX_BATCH_SIZE, 3]

    def test_cache_hits_skip_batches(self, ws_graph):
        cache = DistanceCache()
        cache.put(ws_graph, 0, "unit", np.zeros(ws_graph.num_vertices))
        planner = QueryPlanner()
        plan = planner.plan([Query(0), Query(1)], cache=cache, graph=ws_graph)
        assert list(plan.cached) == [0]
        assert plan.cached[0] is not None  # the probe IS the fetch
        assert plan.num_exact_sources == 1


class TestService:
    def test_point_query_matches_dijkstra(self, ws_graph, ws_oracle):
        svc = QueryService(ws_graph)
        resp = svc.query(0, 42)
        assert resp.exact and not resp.from_cache
        assert resp.distance == ws_oracle[42]

    def test_one_to_many_matches_dijkstra(self, ws_graph, ws_oracle):
        svc = QueryService(ws_graph)
        resp = svc.query(0)
        assert np.array_equal(resp.distances, ws_oracle)

    def test_second_query_hits_cache(self, ws_graph):
        svc = QueryService(ws_graph)
        first = svc.query(0, 10)
        second = svc.query(0, 11)
        assert not first.from_cache
        assert second.from_cache
        assert svc.cache.stats().hits >= 1

    def test_drain_coalesces_into_one_batch(self, ws_graph, ws_oracle):
        svc = QueryService(ws_graph)
        for s in (0, 5, 9, 0, 5):
            svc.submit(Query(source=s, target=1))
        responses = svc.drain()
        assert len(responses) == 5
        assert svc.stats().batches_solved == 1
        assert svc.stats().sources_solved == 3  # deduplicated
        assert responses[0].distance == ws_oracle[1]
        assert responses[3].distance == ws_oracle[1]

    def test_responses_in_submission_order(self, ws_graph):
        svc = QueryService(ws_graph)
        svc.submit(Query(source=3, target=0))
        svc.submit(Query(source=8, target=0))
        responses = svc.drain()
        assert [r.query.source for r in responses] == [3, 8]

    def test_batch_results_match_dijkstra_per_source(self, ws_graph):
        svc = QueryService(ws_graph)
        sources = range(0, 3 * (MAX_BATCH_SIZE + 2), 3)
        for s in sources:
            svc.submit(Query(source=s))
        responses = svc.drain()
        assert svc.stats().batches_solved == 2  # MAX_BATCH_SIZE + 2 sources
        for s, resp in zip(sources, responses):
            assert np.array_equal(resp.distances, dijkstra(ws_graph, s).distances)

    def test_invalidate_forces_recompute(self, ws_graph):
        svc = QueryService(ws_graph)
        svc.query(0, 1)
        assert svc.invalidate() == 1
        resp = svc.query(0, 1)
        assert not resp.from_cache

    def test_source_validation(self, ws_graph):
        svc = QueryService(ws_graph)
        with pytest.raises(IndexError):
            svc.submit(Query(source=10_000))
        with pytest.raises(IndexError):
            svc.submit(Query(source=0, target=10_000))

    @pytest.mark.parametrize(
        "query",
        [Query(1.5), Query(2.7, 3), Query(3, 4.9)],
        ids=["float-source", "float-source-int-target", "float-target"],
    )
    def test_non_integer_ids_rejected(self, ws_graph, query):
        svc = QueryService(ws_graph)
        with pytest.raises(TypeError, match="integer vertex id"):
            svc.submit(query)
        assert svc.num_pending == 0

    def test_rejected_query_leaves_the_round_intact(self, ws_graph, ws_oracle):
        svc = QueryService(ws_graph)
        svc.submit(Query(0, 1))
        svc.submit(Query(0, 2))
        with pytest.raises(TypeError):
            svc.submit(Query(3, 4.9))
        responses = svc.drain()
        assert [r.distance for r in responses] == [ws_oracle[1], ws_oracle[2]]
        assert svc.stats().queries_served == 2

    def test_numpy_integer_ids_accepted(self, ws_graph, ws_oracle):
        resp = QueryService(ws_graph).query(np.int64(0), np.int32(42))
        assert type(resp.query.source) is int and type(resp.query.target) is int
        assert resp.distance == ws_oracle[42]

    def test_drain_empty_is_noop(self, ws_graph):
        assert QueryService(ws_graph).drain() == []

    def test_stats_percentiles(self, ws_graph):
        svc = QueryService(ws_graph)
        for s in range(6):
            svc.query(s, 0)
        stats = svc.stats()
        assert stats.queries_served == 6
        assert stats.latency_p50_ms <= stats.latency_p99_ms
        assert stats.throughput_qps > 0


def _path_with_detour(cut: bool = False) -> Graph:
    """0-1-2-3-4-5 at weight 1 plus a detour 0-5 at weight 19: d(0, 4)
    is 4 through edge 2-3, and 20 once *cut* removes that edge."""
    edges = [(0, 1), (1, 2), (3, 4), (4, 5)] + ([] if cut else [(2, 3)])
    src, dst = zip(*edges, (0, 5))
    w = [1.0] * len(edges) + [19.0]
    return Graph.from_edges(src, dst, w, n=6, directed=False)


class TestDerivedStateAfterEdits:
    """Edits made outside :meth:`QueryService.mutate` must not leave
    derived per-graph state answering for the old graph."""

    @staticmethod
    def _landmark_service(g, degrading_service):
        lm = LandmarkIndex.build(g, num_landmarks=2)
        svc = degrading_service(g, lm)
        assert svc.query(1).exact  # later misses degrade to landmark bounds
        return svc, lm

    def test_invalidate_drops_partition_views(self):
        g = datasets.load("ci-road")
        svc = QueryService(g, stepper="sharded(shards=2)")
        svc.query(0)
        g.weights[:] = g.weights * 3.0
        svc.invalidate()
        assert np.array_equal(svc.query(0).distances, dijkstra(g, 0).distances)

    def test_invalidate_marks_landmarks_stale(self, degrading_service):
        g = _path_with_detour()
        svc, _ = self._landmark_service(g, degrading_service)
        cut = _path_with_detour(cut=True)
        g.indptr, g.indices, g.weights = cut.indptr, cut.indices, cut.weights
        svc.invalidate()
        resp = svc.query(0, 4)
        assert resp.degraded and not resp.exact
        assert dijkstra(g, 0).distances[4] == 20.0
        assert resp.distance >= 20.0  # an upper bound, not the deleted walk's 4

    def test_invalidate_retires_every_services_rows(self):
        g = generators.grid_2d(6, 6)
        a, b = QueryService(g), QueryService(g)
        b.query(0)
        g.weights *= 3.0
        a.invalidate()  # announced through a; b's cache holds the old rows
        resp = b.query(0)
        assert not resp.from_cache
        assert np.array_equal(resp.distances, dijkstra(g, 0).distances)

    def test_invalidate_makes_an_outside_landmark_index_stale(self):
        g = generators.grid_2d(6, 6)
        lm = LandmarkIndex.build(g, num_landmarks=2)
        a = QueryService(g)
        g.weights *= 3.0
        a.invalidate()
        assert lm.stale
        assert lm.ensure_fresh() and not lm.stale
        for s in range(g.num_vertices):
            true = dijkstra(g, s).distances
            upper = [lm.upper_bound(s, t) for t in range(g.num_vertices)]
            assert np.all(np.asarray(upper) >= true), s

    def test_epoch_move_outside_the_service_makes_landmarks_stale(self, degrading_service):
        g = _path_with_detour()
        svc, lm = self._landmark_service(g, degrading_service)
        assert not lm.stale
        apply_edge_updates(g, deletes=[(2, 3)])
        assert lm.stale
        resp = svc.query(0, 4)
        assert resp.degraded and not resp.exact
        assert dijkstra(g, 0).distances[4] == 20.0
        assert resp.distance >= 20.0
        assert not lm.stale and lm.rebuilds == 1
