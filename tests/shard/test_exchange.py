"""The frontier-exchange protocol: outbox accumulation, min-combine
delivery, communication counters, and the transport plug points."""

import numpy as np
import pytest

from repro.parallel.pool import get_pool
from repro.shard import (
    ExchangeStats,
    FrontierExchange,
    InProcessTransport,
    Outbox,
    PoolTransport,
    Transport,
    TRANSPORTS,
    make_transport,
)


class TestOutbox:
    def test_post_min_combines_duplicates(self):
        box = Outbox(6)
        box.post(np.array([2, 4, 2]), np.array([5.0, 1.0, 3.0]))
        box.post(np.array([2]), np.array([7.0]))
        keys, vals = box.take()
        assert np.array_equal(keys, [2, 4])
        assert np.array_equal(vals, [3.0, 1.0])

    def test_take_drains(self):
        box = Outbox(4)
        box.post(np.array([1]), np.array([2.0]))
        box.take()
        assert not box
        keys, vals = box.take()
        assert len(keys) == 0 and len(vals) == 0

    def test_buffer_reset_between_rounds(self):
        box = Outbox(4)
        box.post(np.array([1]), np.array([2.0]))
        box.take()
        box.post(np.array([1]), np.array([5.0]))
        _, vals = box.take()
        assert vals[0] == 5.0  # the old 2.0 must not leak into round two

    def test_empty_post_is_free(self):
        box = Outbox(4)
        box.post(np.empty(0, dtype=np.int64), np.empty(0))
        assert not box


class TestFrontierExchange:
    def test_flush_min_combines_across_senders(self):
        ex = FrontierExchange(num_shards=3, num_vertices=8)
        dist = np.full(8, np.inf)
        ex.post(0, np.array([5]), np.array([4.0]))
        ex.post(1, np.array([5]), np.array([3.0]))
        ex.post(2, np.array([6]), np.array([9.0]))
        improved = ex.flush(dist)
        assert np.array_equal(improved, [5, 6])
        assert dist[5] == 3.0 and dist[6] == 9.0

    def test_delivery_filters_non_improvements(self):
        ex = FrontierExchange(num_shards=1, num_vertices=4)
        dist = np.array([0.0, 1.0, np.inf, np.inf])
        ex.post(0, np.array([1, 2]), np.array([5.0, 2.0]))
        improved = ex.flush(dist)
        assert np.array_equal(improved, [2])  # 5.0 lost to the cached 1.0
        assert dist[1] == 1.0

    def test_counters_track_volume(self):
        ex = FrontierExchange(num_shards=2, num_vertices=8)
        dist = np.full(8, np.inf)
        ex.post(0, np.array([3, 3, 4]), np.array([2.0, 1.0, 6.0]))  # 3 posted
        ex.post(1, np.array([4]), np.array([5.0]))  # 1 posted
        ex.flush(dist)
        s = ex.stats
        assert s.exchanges == 1
        assert s.entries_posted == 4
        assert s.entries_carried == 3  # {3, 4} from shard 0 + {4} from shard 1
        assert s.entries_applied == 2  # vertex 4 applies once (min 5.0)
        assert s.bytes_carried == 3 * 16
        assert 0 < s.dedup_ratio < 1

    def test_empty_flush_counts_nothing(self):
        ex = FrontierExchange(num_shards=2, num_vertices=4)
        out = ex.flush(np.full(4, np.inf))
        assert len(out) == 0
        assert ex.stats.exchanges == 0

    def test_stats_as_dict_keys(self):
        keys = set(ExchangeStats().as_dict())
        assert keys == {
            "exchanges", "entries_posted", "entries_carried",
            "entries_applied", "bytes_carried",
        }


class TestPerSuperstep:
    def _run_rounds(self):
        ex = FrontierExchange(num_shards=2, num_vertices=8)
        dist = np.full(8, np.inf)
        ex.post(0, np.array([3, 3, 4]), np.array([2.0, 1.0, 6.0]))
        ex.post(1, np.array([4]), np.array([5.0]))
        ex.flush(dist)
        ex.post(0, np.array([5]), np.array([7.0]))
        ex.flush(dist)
        ex.flush(dist)  # empty round: no row
        return ex

    def test_rows_sum_to_aggregates(self):
        ex = self._run_rounds()
        rows = ex.stats.per_superstep()
        agg = ex.stats.as_dict()
        assert len(rows) == agg["exchanges"] == 2
        for key in (
            "entries_posted", "entries_carried", "entries_applied", "bytes_carried",
        ):
            assert sum(r[key] for r in rows) == agg[key], key

    def test_rows_are_indexed_and_per_round(self):
        ex = self._run_rounds()
        rows = ex.stats.per_superstep()
        assert [r["superstep"] for r in rows] == [0, 1]
        assert rows[0]["entries_posted"] == 4
        assert rows[1] == {
            "superstep": 1, "entries_posted": 1, "entries_carried": 1,
            "entries_applied": 1, "bytes_carried": 16,
        }

    def test_per_superstep_returns_copies(self):
        ex = self._run_rounds()
        ex.stats.per_superstep()[0]["entries_posted"] = -1
        assert ex.stats.per_superstep()[0]["entries_posted"] == 4

    def test_empty_rounds_add_no_rows(self):
        ex = FrontierExchange(num_shards=1, num_vertices=4)
        ex.flush(np.full(4, np.inf))
        assert ex.stats.per_superstep() == []

    def test_sharded_run_rows_match_result_aggregates(self, random_weighted_graph):
        from repro.stepping import solve_with

        res = solve_with("sharded(shards=3)", random_weighted_graph, 0)
        rows = res.extra["per_superstep"]
        assert len(rows) == res.extra["exchanges"] > 0
        for key in (
            "entries_posted", "entries_carried", "entries_applied", "bytes_carried",
        ):
            assert sum(r[key] for r in rows) == res.extra[key], key


class TestTransports:
    def test_inline_runs_in_order(self):
        tr = InProcessTransport()
        assert tr.run([lambda: 1, lambda: 2]) == [1, 2]

    def test_pool_transport_uses_shared_pool(self):
        pool = get_pool(2)
        tr = PoolTransport(pool=pool)
        assert tr.pool is pool
        assert tr.run([lambda k=k: k * 2 for k in range(4)]) == [0, 2, 4, 6]

    def test_make_transport_specs(self):
        assert isinstance(make_transport(None), InProcessTransport)
        assert isinstance(make_transport("inline"), InProcessTransport)
        tr = make_transport("threads:3")
        assert isinstance(tr, PoolTransport)
        assert tr.pool.num_threads == 3

    def test_make_transport_passes_instances_through(self):
        tr = InProcessTransport()
        assert make_transport(tr) is tr

    def test_unknown_transport_enumerates_registry(self):
        with pytest.raises(ValueError) as excinfo:
            make_transport("carrier-pigeon")
        message = str(excinfo.value)
        for name in TRANSPORTS:
            assert name in message

    def test_transport_is_abstract(self):
        with pytest.raises(TypeError):
            Transport()
