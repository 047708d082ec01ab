"""QueryService + QueryPlanner: coalescing, routing, caching, stats."""

import numpy as np
import pytest

from repro.dynamic import apply_edge_updates
from repro.graphs import datasets
from repro.graphs.graph import Graph
from repro.service import (
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
        planner = QueryPlanner(max_batch_size=8)
        plan = planner.plan([Query(0, 1), Query(0, 2), Query(0, 3)])
        assert plan.num_exact_sources == 1

    def test_chunks_to_batch_size(self):
        planner = QueryPlanner(max_batch_size=4)
        plan = planner.plan([Query(s) for s in range(10)])
        assert [len(b) for b in plan.batches] == [4, 4, 2]

    def test_cache_hits_skip_batches(self, ws_graph):
        cache = DistanceCache()
        cache.put(ws_graph, 0, "unit", np.zeros(ws_graph.num_vertices))
        planner = QueryPlanner()
        plan = planner.plan([Query(0), Query(1)], cache=cache, graph=ws_graph)
        assert list(plan.cached) == [0]
        assert plan.cached[0] is not None  # the probe IS the fetch
        assert plan.num_exact_sources == 1

    def test_budget_routes_to_landmarks(self):
        planner = QueryPlanner(latency_budget_ms=1.0)
        planner.record_solve(1, 50.0)  # model: exact solve far over budget
        plan = planner.plan([Query(3)], has_landmarks=True)
        assert plan.approximate == [3]
        assert plan.num_exact_sources == 0

    def test_budget_without_landmarks_stays_exact(self):
        planner = QueryPlanner(latency_budget_ms=1.0)
        planner.record_solve(1, 50.0)
        plan = planner.plan([Query(3)], has_landmarks=False)
        assert plan.approximate == []
        assert plan.num_exact_sources == 1

    def test_no_cost_model_stays_exact(self):
        planner = QueryPlanner(latency_budget_ms=1.0)
        plan = planner.plan([Query(3)], has_landmarks=True)
        assert plan.num_exact_sources == 1

    def test_per_query_budget_overrides_default(self):
        planner = QueryPlanner(latency_budget_ms=None)
        planner.record_solve(1, 50.0)
        plan = planner.plan([Query(3, max_latency_ms=0.5)], has_landmarks=True)
        assert plan.approximate == [3]

    def test_budget_is_cumulative_over_the_round(self):
        """The budget bounds the whole drain, not each source alone."""
        planner = QueryPlanner(latency_budget_ms=10.0)
        planner.record_solve(1, 4.0)  # model: 4 ms per exact source
        plan = planner.plan([Query(s) for s in range(5)], has_landmarks=True)
        assert plan.num_exact_sources == 2  # 8 ms committed; a third would overflow
        assert plan.approximate == [2, 3, 4]


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
        svc = QueryService(ws_graph, max_batch_size=4)
        sources = [0, 3, 7, 11, 20, 33]
        for s in sources:
            svc.submit(Query(source=s))
        responses = svc.drain()
        assert svc.stats().batches_solved == 2  # 6 sources / batch of 4
        for s, resp in zip(sources, responses):
            assert np.array_equal(resp.distances, dijkstra(ws_graph, s).distances)

    def test_budget_falls_back_to_landmark_answer(self, ws_graph, ws_oracle):
        landmarks = LandmarkIndex.build(ws_graph, num_landmarks=4)
        svc = QueryService(ws_graph, landmarks=landmarks, latency_budget_ms=1e-6)
        svc.query(7, 3)  # calibrates the planner's cost model (exact)
        resp = svc.query(0, 42)  # now predicted over budget -> approximate
        assert not resp.exact
        lower, upper = resp.bounds
        assert lower <= ws_oracle[42] <= upper
        assert resp.distance == upper
        assert svc.stats().approximate_answers == 1

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
    def _landmark_service(g):
        lm = LandmarkIndex.build(g, num_landmarks=2)
        svc = QueryService(g, landmarks=lm, latency_budget_ms=0.0)
        svc.query(1)  # calibrates the planner: later misses go to landmarks
        return svc, lm

    def test_invalidate_drops_partition_views(self):
        g = datasets.load("ci-road")
        svc = QueryService(g, stepper="sharded(shards=2)")
        svc.query(0)
        g.weights[:] = g.weights * 3.0
        svc.invalidate()
        assert np.array_equal(svc.query(0).distances, dijkstra(g, 0).distances)

    def test_invalidate_marks_landmarks_stale(self):
        g = _path_with_detour()
        svc, _ = self._landmark_service(g)
        cut = _path_with_detour(cut=True)
        g.indptr, g.indices, g.weights = cut.indptr, cut.indices, cut.weights
        svc.invalidate()
        resp = svc.query(0, 4)
        assert not resp.exact
        assert dijkstra(g, 0).distances[4] == 20.0
        assert resp.distance >= 20.0  # an upper bound, not the deleted walk's 4

    def test_epoch_move_outside_the_service_makes_landmarks_stale(self):
        g = _path_with_detour()
        svc, lm = self._landmark_service(g)
        assert not lm.stale
        apply_edge_updates(g, deletes=[(2, 3)])
        assert lm.stale
        resp = svc.query(0, 4)
        assert not resp.exact
        assert dijkstra(g, 0).distances[4] == 20.0
        assert resp.distance >= 20.0
        assert not lm.stale and lm.rebuilds == 1
