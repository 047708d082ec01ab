"""DistanceCache: LRU eviction, graph invalidation, stats, immutability."""

import numpy as np
import pytest

from repro.graphs.graph import Graph
from repro.service.cache import DistanceCache


def _graph(n=4, name="g"):
    return Graph.from_edges([0, 1, 2], [1, 2, 3], n=n, name=name)


class TestLookup:
    def test_miss_then_hit(self):
        cache = DistanceCache()
        g = _graph()
        assert cache.get(g, 0) is None
        cache.put(g, 0, "unit", np.arange(4.0))
        hit = cache.get(g, 0)
        assert hit is not None
        assert np.array_equal(hit, [0, 1, 2, 3])

    def test_key_includes_source_and_weight_mode(self):
        cache = DistanceCache()
        g = _graph()
        cache.put(g, 0, "unit", np.zeros(4))
        assert cache.get(g, 1) is None
        assert cache.get(g, 0, "uniform") is None
        assert cache.get(g, 0, "unit") is not None

    def test_key_distinguishes_graph_objects(self):
        cache = DistanceCache()
        g1, g2 = _graph(name="a"), _graph(name="b")
        cache.put(g1, 0, "unit", np.zeros(4))
        assert cache.get(g2, 0) is None

    def test_entries_are_read_only(self):
        cache = DistanceCache()
        g = _graph()
        cache.put(g, 0, "unit", np.zeros(4))
        hit = cache.get(g, 0)
        with pytest.raises(ValueError):
            hit[0] = 99.0

    def test_put_validates_length(self):
        cache = DistanceCache()
        with pytest.raises(ValueError):
            cache.put(_graph(), 0, "unit", np.zeros(3))


class TestEviction:
    def test_lru_eviction_order(self):
        cache = DistanceCache(capacity=2)
        g = _graph()
        cache.put(g, 0, "unit", np.zeros(4))
        cache.put(g, 1, "unit", np.zeros(4))
        cache.get(g, 0)  # 0 is now most-recently-used
        cache.put(g, 2, "unit", np.zeros(4))  # evicts 1, not 0
        assert cache.get(g, 0) is not None
        assert cache.get(g, 1) is None
        assert cache.stats().evictions == 1

    def test_capacity_bound_holds(self):
        cache = DistanceCache(capacity=3)
        g = _graph()
        for s in range(10):
            cache.put(g, s, "unit", np.zeros(4))
        assert len(cache) == 3

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            DistanceCache(capacity=0)


class TestInvalidation:
    def test_invalidate_drops_graph_entries(self):
        cache = DistanceCache()
        g1, g2 = _graph(name="a"), _graph(name="b")
        cache.put(g1, 0, "unit", np.zeros(4))
        cache.put(g2, 0, "unit", np.zeros(4))
        dropped = cache.invalidate(g1)
        assert dropped == 1
        assert cache.get(g1, 0) is None
        assert cache.get(g2, 0) is not None

    def test_mutation_workflow(self):
        """The documented in-place mutation pattern: edit, bump the epoch,
        recompute — stale distances never come back, and
        :meth:`invalidate` frees them before any lookup would."""
        cache = DistanceCache()
        g = _graph()
        cache.put(g, 0, "unit", np.array([0.0, 1.0, 2.0, 3.0]))
        g.weights[:] = 5.0  # in-place mutation
        g.epoch += 1  # announced, as QueryService.invalidate does
        assert cache.invalidate(g) == 1
        assert cache.get(g, 0) is None
        cache.put(g, 0, "unit", np.array([0.0, 5.0, 10.0, 15.0]))
        assert cache.get(g, 0)[1] == 5.0

    def test_invalidate_unknown_graph_not_counted(self):
        """Regression: invalidating a graph the cache never saw inflated
        the ``invalidations`` counter; only real invalidations count."""
        cache = DistanceCache()
        stranger = _graph(name="never-seen")
        assert cache.invalidate(stranger) == 0
        assert cache.stats().invalidations == 0

    def test_invalidate_empty_known_graph_not_counted(self):
        cache = DistanceCache()
        g = _graph()
        cache.get(g, 0)  # known (missed), but holds no entries
        assert cache.invalidate(g) == 0
        assert cache.stats().invalidations == 0

    def test_invalidate_with_entries_counted_once(self):
        cache = DistanceCache()
        g = _graph()
        cache.put(g, 0, "unit", np.zeros(4))
        cache.put(g, 1, "unit", np.zeros(4))
        assert cache.invalidate(g) == 2
        assert cache.stats().invalidations == 1

    def test_epoch_keying_invalidates_implicitly(self):
        """The mutation API bumps ``graph.epoch``; old entries must miss
        without any call into the cache."""
        cache = DistanceCache()
        g = _graph()
        cache.put(g, 0, "unit", np.zeros(4))
        g.epoch += 1
        assert cache.get(g, 0) is None
        cache.put(g, 0, "unit", np.ones(4))
        assert cache.get(g, 0)[0] == 1.0

    def test_rows_of_older_epochs_dropped_on_next_touch(self):
        """Rows another holder retired (a second service's ``invalidate``,
        a direct update batch) are freed by this cache's next lookup of
        the graph, not left to LRU eviction; ``put`` and
        ``take_entries`` at a newer epoch free them too."""
        from repro.dynamic import apply_edge_updates
        from repro.graphs import generators
        from repro.service import QueryService

        g = generators.grid_2d(6, 6)
        a, b = QueryService(g), QueryService(g)
        for s in range(10):
            b.query(s)
        assert len(b.cache) == 10
        a.invalidate()
        assert len(b.cache) == 10  # nothing has asked b about g yet
        b.query(10)
        assert len(b.cache) == 1
        apply_edge_updates(g, reweights=[(0, 1, 5.0)])
        b.query(11)
        assert len(b.cache) == 1
        assert b.cache.get(g, 11) is not None
        g.epoch += 1
        b.cache.put(g, 12, "unit", np.zeros(g.num_vertices))
        assert len(b.cache) == 1
        g.epoch += 1
        assert b.cache.take_entries(g) == {}
        assert len(b.cache) == 0
        assert b.cache.stats().invalidations == 0

    def test_stats_counters(self):
        cache = DistanceCache()
        g = _graph()
        cache.get(g, 0)
        cache.put(g, 0, "unit", np.zeros(4))
        cache.get(g, 0)
        stats = cache.stats()
        assert (stats.hits, stats.misses) == (1, 1)
        assert stats.hit_rate == 0.5

    def test_clear_resets(self):
        cache = DistanceCache()
        g = _graph()
        cache.put(g, 0, "unit", np.zeros(4))
        cache.clear()
        assert len(cache) == 0
        assert cache.stats().hits == 0

    def test_garbage_collected_graph_drops_entries(self):
        import gc

        cache = DistanceCache()
        g = _graph()
        cache.put(g, 0, "unit", np.zeros(4))
        del g
        gc.collect()
        assert len(cache) == 0

    def test_short_lived_services_leave_no_callbacks_on_a_live_graph(self):
        """Each cache's graph watch dies with the cache: a thousand
        one-query services over one live graph add no weak references
        (nor finalizers) to it, and a live cache still purges the graph's
        entries once the graph is collected."""
        import gc
        import weakref

        from repro.graphs import generators
        from repro.service import QueryService

        g = generators.grid_2d(8, 8)
        survivor = DistanceCache()
        survivor.put(g, 0, "unit", np.zeros(g.num_vertices))
        gc.collect()
        refs, finalizers = weakref.getweakrefcount(g), len(weakref.finalize._registry)
        for i in range(1000):
            QueryService(g).query(i % g.num_vertices, 5)
        gc.collect()
        assert weakref.getweakrefcount(g) <= refs + 1
        assert len(weakref.finalize._registry) <= finalizers + 1
        assert len(survivor) == 1
        del g
        gc.collect()
        assert len(survivor) == 0


class TestMetricsIntegration:
    def test_counters_mirror_into_registry(self):
        from repro.obs import MetricsRegistry

        metrics = MetricsRegistry()
        cache = DistanceCache(capacity=2, metrics=metrics)
        g = _graph()
        cache.get(g, 0)  # miss
        cache.put(g, 0, "unit", np.zeros(4))
        cache.get(g, 0)  # hit
        cache.put(g, 1, "unit", np.zeros(4))
        cache.put(g, 2, "unit", np.zeros(4))  # evicts source 0
        cache.invalidate(g)
        snap = metrics.snapshot()
        stats = cache.stats()
        assert snap["counters"]["cache.hits"] == stats.hits == 1
        assert snap["counters"]["cache.misses"] == stats.misses == 1
        assert snap["counters"]["cache.evictions"] == stats.evictions == 1
        assert snap["counters"]["cache.invalidations"] == stats.invalidations == 1
        assert snap["gauges"]["cache.size"] == 0

    def test_size_gauge_tracks_inserts(self):
        from repro.obs import MetricsRegistry

        metrics = MetricsRegistry()
        cache = DistanceCache(metrics=metrics)
        g = _graph()
        cache.put(g, 0, "unit", np.zeros(4))
        cache.put(g, 1, "unit", np.zeros(4))
        assert metrics.snapshot()["gauges"]["cache.size"] == 2
        cache.clear()
        assert metrics.snapshot()["gauges"]["cache.size"] == 0

    def test_bind_metrics_first_binding_wins(self):
        from repro.obs import MetricsRegistry

        cache = DistanceCache()
        first, second = MetricsRegistry(), MetricsRegistry()
        cache.bind_metrics(first)
        cache.bind_metrics(second)  # no-op: already bound
        g = _graph()
        cache.get(g, 0)
        assert first.snapshot()["counters"]["cache.misses"] == 1
        assert len(second) == 0

    def test_unbound_cache_records_no_metrics(self):
        cache = DistanceCache()
        g = _graph()
        cache.get(g, 0)
        cache.put(g, 0, "unit", np.zeros(4))
        assert cache.stats().misses == 1  # plain counters still work
