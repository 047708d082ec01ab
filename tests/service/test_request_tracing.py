"""Request-scoped tracing through the serving tier: ids, spans, slow log."""

import math

import pytest

from repro.graphs import generators
from repro.obs import Recorder, filter_spans_by_request
from repro.service import Query, QueryService


@pytest.fixture(scope="module")
def grid():
    return generators.grid_2d(8, 8)


class TestRequestIds:
    def test_submit_assigns_sequential_ids(self, grid):
        svc = QueryService(grid)
        svc.submit(Query(0))
        svc.submit(Query(1))
        responses = svc.drain()
        assert [r.query.request_id for r in responses] == ["q-000001", "q-000002"]

    def test_caller_supplied_id_is_kept(self, grid):
        svc = QueryService(grid)
        svc.submit(Query(0, request_id="my-req"))
        (r,) = svc.drain()
        assert r.query.request_id == "my-req"

    def test_ids_survive_coalescing(self, grid):
        svc = QueryService(grid)
        svc.submit(Query(0, target=1))
        svc.submit(Query(0, target=2))  # same source, coalesced into one solve
        responses = svc.drain()
        assert [r.query.request_id for r in responses] == ["q-000001", "q-000002"]


class TestSpanPropagation:
    def test_every_span_of_the_round_is_tagged(self, grid):
        rec = Recorder()
        svc = QueryService(grid, recorder=rec)
        svc.submit(Query(0))
        svc.submit(Query(1, request_id="my-req"))
        svc.drain()
        spans = rec.trace.spans()
        assert spans, "the drain round must record spans"
        for s in spans:
            assert s["args"].get("request_id") == "q-000001,my-req", s["name"]

    def test_sharded_pool_spans_inherit_the_request_id(self, grid):
        # shard steps run on pooled threads — the ambient context is
        # recorder-scoped, not thread-local, so they must still be tagged
        rec = Recorder()
        svc = QueryService(grid, recorder=rec, stepper="sharded(shards=2)")
        svc.submit(Query(0))
        svc.drain()
        spans = rec.trace.spans()
        step_spans = [s for s in spans if "shard" in s["name"] or "step" in s["name"]]
        assert step_spans, "sharded solve must record shard/step spans"
        untagged = [s["name"] for s in spans if "request_id" not in s["args"]]
        assert untagged == []

    def test_filter_spans_by_request_round_trips(self, grid):
        rec = Recorder()
        svc = QueryService(grid, recorder=rec)
        svc.query(0)
        svc.query(1)
        spans = rec.trace.spans()
        mine = filter_spans_by_request(spans, "q-000002")
        assert mine
        assert all("q-000002" in str(s["args"]["request_id"]).split(",") for s in mine)
        assert not filter_spans_by_request(spans, "q-999999")

    def test_batch_solve_span_carries_the_engine_counters(self, grid):
        rec = Recorder()
        svc = QueryService(grid, recorder=rec)
        svc.query(0)
        (span,) = rec.trace.spans("service:batch-solve")
        assert span["args"]["phases"] > 0 and span["args"]["relaxations"] > 0
        (drain,) = rec.trace.spans("service:drain")
        assert span["dur_us"] <= drain["dur_us"]

    def test_failed_solve_still_records_its_span(self, grid):
        def broken(*args, **kwargs):
            raise RuntimeError("solver down")

        rec = Recorder()
        svc = QueryService(grid, recorder=rec, solver=broken)
        with pytest.raises(RuntimeError):
            svc.query(0)
        (span,) = rec.trace.spans("service:batch-solve")
        assert span["args"]["failed"] is True
        assert span["args"]["request_id"] == "q-000001"

    def test_consecutive_drains_do_not_leak_context(self, grid):
        rec = Recorder()
        svc = QueryService(grid, recorder=rec)
        svc.query(0)
        with rec.span("outside"):
            pass
        outside = [s for s in rec.trace.spans() if s["name"] == "outside"][0]
        assert "request_id" not in outside["args"]


class TestSlowQueryLog:
    def test_threshold_zero_logs_everything(self, grid):
        rec = Recorder()
        svc = QueryService(grid, recorder=rec, slow_query_ms=0.0)
        svc.query(0)
        entries = svc.slow_query_log.entries()
        assert len(entries) == 1
        e = entries[0]
        assert e["request_id"] == "q-000001"
        assert e["latency_ms"] > 0
        assert e["stepper"]
        assert e["plan"]["batches"] >= 1
        assert "cache_hit" in e and "counters" in e

    def test_high_threshold_logs_nothing(self, grid):
        rec = Recorder()
        svc = QueryService(grid, recorder=rec, slow_query_ms=1e9)
        svc.query(0)
        assert svc.slow_query_log.entries() == []
        assert "service.slow_queries" not in rec.summary()["counters"]

    def test_flight_snapshot_embedded_when_flight_recorder_bound(self, grid):
        rec = Recorder.flight(capacity=256)
        svc = QueryService(grid, recorder=rec, slow_query_ms=0.0)
        svc.query(0)
        (e,) = svc.slow_query_log.entries()
        assert e["flight"], "flight recorder must contribute a snapshot"
        assert all({"name", "ts_us", "dur_us", "args"} <= set(s) for s in e["flight"])

    def test_every_recorder_embeds_spans_of_the_round(self, grid):
        rec = Recorder()
        svc = QueryService(grid, recorder=rec, slow_query_ms=0.0)
        svc.query(0)
        svc.query(1)
        entries = svc.slow_query_log.entries()
        assert len(entries) == 2
        for e in entries:
            assert e["flight"], "an unbounded trace must contribute a snapshot too"
            assert e["flight"][-1]["args"]["request_id"] == e["request_id"]

    def test_counter_deltas_cover_only_this_round(self, grid):
        rec = Recorder()
        svc = QueryService(grid, recorder=rec, slow_query_ms=0.0)
        svc.query(0)
        first = svc.slow_query_log.entries()[-1]["counters"]
        svc.query(1)
        second = svc.slow_query_log.entries()[-1]["counters"]
        # deltas, not cumulative totals: each single-query round must
        # report exactly one served query, not the running total
        assert first["service.queries"] == 1
        assert second["service.queries"] == 1

    def test_no_recorder_means_no_log_overhead(self, grid):
        svc = QueryService(grid, slow_query_ms=0.0)
        svc.query(0)  # recorder-less path must not throw
        assert svc.slow_query_log.entries() == []


class TestStatsFromRecorder:
    def test_percentiles_come_from_the_histogram(self, grid):
        rec = Recorder()
        svc = QueryService(grid, recorder=rec)
        for s in range(6):
            svc.query(s)
        stats = svc.stats()
        summary = rec.metrics.histogram("service.query_ms").summary()
        assert stats.latency_p50_ms == summary["p50"]
        assert stats.latency_p99_ms == summary["p99"]
        assert stats.latency_p50_ms <= stats.latency_p99_ms

    def test_empty_recorder_stats_use_nan_sentinel(self, grid):
        svc = QueryService(grid, recorder=Recorder())
        stats = svc.stats()
        assert math.isnan(stats.latency_p50_ms)
        assert math.isnan(stats.latency_p99_ms)

    def test_recorderless_stats_use_nan_sentinel(self, grid):
        svc = QueryService(grid)
        assert math.isnan(svc.stats().latency_p50_ms)
        svc.query(0)
        assert svc.stats().latency_p50_ms >= 0.0

    def test_query_ms_uses_the_latency_preset(self, grid):
        from repro.obs import LATENCY_MS_BUCKETS

        rec = Recorder()
        QueryService(grid, recorder=rec)
        h = rec.metrics.histogram("service.query_ms")
        assert tuple(h.bounds) == LATENCY_MS_BUCKETS
