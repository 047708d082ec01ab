"""Recording end-to-end: bit-identity, layered spans, service metrics."""

import json

import numpy as np
import pytest

from repro.obs import Recorder
from repro.service import QueryService
from repro.stepping import STEPPERS, solve_with


def _fingerprint(result):
    return (
        result.buckets_processed,
        result.phases,
        result.relaxations,
        result.updates,
    )


class TestBitIdentity:
    """Recording must never change distances or work counters."""

    @pytest.mark.parametrize("name", sorted(STEPPERS))
    def test_recorded_run_identical_to_unrecorded(self, name, random_weighted_graph):
        g = random_weighted_graph
        base = solve_with(name, g, 0)
        recorded = solve_with(name, g, 0, recorder=Recorder())
        assert np.array_equal(base.distances, recorded.distances)
        assert _fingerprint(base) == _fingerprint(recorded)

    @pytest.mark.parametrize("name", sorted(STEPPERS))
    def test_every_stepper_emits_a_solve_span(self, name, random_weighted_graph):
        rec = Recorder()
        solve_with(name, random_weighted_graph, 0, recorder=rec)
        names = {s["name"] for s in rec.trace.spans()}
        # the fused engine traces per-bucket instead of one whole-solve span
        if name == "delta":
            assert "bucket" in names
        else:
            assert f"solve:{name}" in names

    def test_sharded_spec_bit_identical(self, random_weighted_graph):
        g = random_weighted_graph
        spec = "sharded(shards=4,partitioner=bfs)"
        base = solve_with(spec, g, 0)
        recorded = solve_with(spec, g, 0, recorder=Recorder())
        assert np.array_equal(base.distances, recorded.distances)
        assert _fingerprint(base) == _fingerprint(recorded)


class TestShardedSpanLayers:
    def test_three_layers_plus_exchange_deltas(self, random_weighted_graph):
        rec = Recorder()
        solve_with(
            "sharded(shards=4,partitioner=bfs)", random_weighted_graph, 0, recorder=rec
        )
        spans = rec.trace.spans()
        names = {s["name"] for s in spans}
        assert {"solve:sharded", "superstep", "shard-step", "exchange"} <= names
        # exchange spans carry the per-round stats deltas
        for ex in rec.trace.spans("exchange"):
            assert {"entries_posted", "entries_carried", "entries_applied"} <= set(
                ex["args"]
            )
        # superstep spans nest shard steps: 4 shards per superstep
        assert len(rec.trace.spans("shard-step")) == 4 * len(
            rec.trace.spans("superstep")
        )

    def test_chrome_export_of_sharded_run_is_valid(self, random_weighted_graph, tmp_path):
        rec = Recorder()
        solve_with("sharded(shards=2)", random_weighted_graph, 0, recorder=rec)
        path = tmp_path / "sharded.json"
        rec.write_trace(path)
        doc = json.loads(path.read_text())
        events = doc["traceEvents"]
        assert events[0]["ph"] == "M"
        for ev in events[1:]:
            assert {"name", "ph", "pid", "tid", "ts"} <= set(ev)
            if ev["ph"] == "X":
                assert ev["dur"] >= 0.0


class TestServiceRecording:
    def _serve(self, graph, rec):
        svc = QueryService(graph, recorder=rec)
        for s in (0, 1, 2, 0, 1):
            svc.query(s, 5)
        return svc

    def test_query_latency_histogram_and_cache_counters(self, random_weighted_graph):
        rec = Recorder()
        self._serve(random_weighted_graph, rec)
        snap = rec.summary()
        lat = snap["histograms"]["service.query_ms"]
        assert lat["count"] == 5
        assert 0.0 < lat["p50"] <= lat["p90"] <= lat["p99"]
        assert snap["counters"]["cache.hits"] == 2
        assert snap["counters"]["cache.misses"] == 3
        assert snap["counters"]["service.queries"] == 5
        assert snap["gauges"]["cache.size"] == 3

    def test_drain_plan_and_solve_spans(self, random_weighted_graph):
        rec = Recorder()
        self._serve(random_weighted_graph, rec)
        names = {s["name"] for s in rec.trace.spans()}
        assert {"service:drain", "service:plan", "service:batch-solve"} <= names

    def test_responses_identical_with_and_without_recorder(self, random_weighted_graph):
        plain = self._serve(random_weighted_graph, None).query(3, 7)
        recorded = self._serve(random_weighted_graph, Recorder()).query(3, 7)
        assert plain.distance == recorded.distance
        assert plain.exact == recorded.exact

    def test_mutation_records_span_histogram_and_repairs(self, random_weighted_graph):
        rec = Recorder()
        svc = self._serve(random_weighted_graph, rec)
        report = svc.mutate(inserts=[(0, 50, 0.05)])
        assert report.repaired_entries > 0
        snap = rec.summary()
        assert snap["histograms"]["service.mutate_ms"]["count"] == 1
        assert snap["counters"]["service.mutations"] == 1
        assert snap["counters"]["repair.runs"] == report.repaired_entries
        assert snap["histograms"]["repair.ms"]["count"] == report.repaired_entries
        names = {s["name"] for s in rec.trace.spans()}
        assert {"service:mutate", "repair"} <= names
        mode_args = [s["args"]["mode"] for s in rec.trace.spans("repair")]
        assert all(m in ("noop", "decrease-only", "general") for m in mode_args)


class TestRepairRecording:
    def test_repair_bit_identical_with_recorder(self, random_weighted_graph):
        from repro.dynamic import apply_edge_updates, repair_sssp
        from repro.sssp.fused import fused_delta_stepping

        g = random_weighted_graph
        before = fused_delta_stepping(g, 0, delta=0.5).distances.copy()
        applied = apply_edge_updates(g, inserts=[(0, 100, 0.01)])
        rec = Recorder()
        repaired = repair_sssp(g, 0, before, applied, delta=0.5, recorder=rec)
        plain = repair_sssp(g, 0, before, applied, delta=0.5)
        assert np.array_equal(repaired.distances, plain.distances)
        (span,) = rec.trace.spans("repair")
        assert span["args"]["mode"] == repaired.mode
        assert rec.summary()["counters"]["repair.runs"] == 1
