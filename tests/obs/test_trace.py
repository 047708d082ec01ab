"""TraceRecorder: span/instant recording, bounded retention, Chrome export."""

import json
import time

import numpy as np
import pytest

from repro.obs import DEFAULT_FLIGHT_CAPACITY, Recorder, TraceRecorder, load_trace


class TestSpans:
    def test_span_records_complete_event(self):
        tr = TraceRecorder()
        with tr.span("work", wave=5):
            pass
        assert len(tr) == 1
        (span,) = tr.spans()
        assert span["name"] == "work"
        assert span["args"] == {"wave": 5}
        assert span["dur_us"] >= 0.0

    def test_set_attaches_late_args(self):
        tr = TraceRecorder()
        with tr.span("work", before=1) as sp:
            sp.set(after=2)
        (span,) = tr.spans()
        assert span["args"] == {"before": 1, "after": 2}

    def test_span_duration_covers_the_block(self):
        tr = TraceRecorder()
        with tr.span("sleep"):
            time.sleep(0.002)
        (span,) = tr.spans()
        assert span["dur_us"] >= 2000.0

    def test_spans_filter_by_name(self):
        tr = TraceRecorder()
        with tr.span("a"):
            pass
        with tr.span("b"):
            pass
        with tr.span("a"):
            pass
        assert len(tr.spans("a")) == 2
        assert len(tr.spans("b")) == 1
        assert len(tr.spans()) == 3

    def test_instants_are_not_spans(self):
        tr = TraceRecorder()
        tr.instant("marker", k=1)
        assert len(tr) == 1
        assert tr.spans() == []

    def test_nested_spans_both_recorded(self):
        tr = TraceRecorder()
        with tr.span("outer"):
            with tr.span("inner"):
                pass
        names = [s["name"] for s in tr.spans()]
        assert names == ["inner", "outer"]  # exit order

    def test_clear(self):
        tr = TraceRecorder()
        with tr.span("x"):
            pass
        tr.clear()
        assert len(tr) == 0

    def test_complete_records_the_given_interval_with_context(self):
        tr = TraceRecorder()
        t0 = time.perf_counter_ns()
        with tr.context(request_id="q-1"):
            tr.complete("round", t0, t0 + 2_500, queries=3)
        tr.complete("outside", t0, t0)
        first, second = tr.spans()
        assert first["name"] == "round" and first["dur_us"] == 2.5
        assert first["args"] == {"request_id": "q-1", "queries": 3}
        assert second["args"] == {}

    def test_contexts_nest_and_unwind(self):
        tr = TraceRecorder()
        with tr.context(request_id="q-1", shard=0):
            with tr.context(shard=1):
                with tr.span("inner"):
                    pass
            with tr.span("outer", request_id="mine"):
                pass
        with tr.span("after"):
            pass
        inner, outer, after = tr.spans()
        assert inner["args"] == {"request_id": "q-1", "shard": 1}
        assert outer["args"] == {"request_id": "mine", "shard": 0}
        assert after["args"] == {}

    def test_exceptions_propagate_through_spans(self):
        tr = TraceRecorder()
        with pytest.raises(RuntimeError):
            with tr.span("boom"):
                raise RuntimeError("x")
        # the span still closed and recorded
        assert len(tr.spans("boom")) == 1


class TestChromeExport:
    def _trace(self):
        tr = TraceRecorder()
        with tr.span("solve", stepper="delta"):
            with tr.span("wave", size=3):
                pass
        tr.instant("tick")
        return tr

    def test_schema_required_fields(self):
        doc = self._trace().to_chrome()
        events = doc["traceEvents"]
        assert doc["displayTimeUnit"] == "ms"
        for ev in events:
            assert {"name", "ph", "pid", "tid"} <= set(ev)
        # every non-metadata event is timestamped
        for ev in events:
            if ev["ph"] != "M":
                assert "ts" in ev

    def test_complete_events_carry_duration(self):
        events = self._trace().to_chrome()["traceEvents"]
        xs = [e for e in events if e["ph"] == "X"]
        assert len(xs) == 2
        for ev in xs:
            assert ev["dur"] >= 0.0

    def test_metadata_event_names_the_process(self):
        events = self._trace().to_chrome(process_name="proc-x")["traceEvents"]
        assert events[0]["ph"] == "M"
        assert events[0]["args"] == {"name": "proc-x"}

    def test_instant_events_have_thread_scope(self):
        events = self._trace().to_chrome()["traceEvents"]
        (inst,) = [e for e in events if e["ph"] == "i"]
        assert inst["s"] == "t"

    def test_json_round_trip(self):
        doc = self._trace().to_chrome()
        assert json.loads(json.dumps(doc)) == doc

    def test_numpy_args_are_coerced(self):
        tr = TraceRecorder()
        with tr.span("np", count=np.int64(7), frac=np.float64(0.5), arr=np.arange(2)):
            pass
        doc = tr.to_chrome()
        text = json.dumps(doc)  # must not raise
        args = json.loads(text)["traceEvents"][1]["args"]
        assert args["count"] == 7
        assert args["frac"] == 0.5
        assert isinstance(args["arr"], str)  # non-scalar: stringified

    def test_write_round_trips_through_disk(self, tmp_path):
        path = tmp_path / "trace.json"
        out = self._trace().write(path)
        assert out == str(path)
        doc = json.loads(path.read_text())
        assert any(e["ph"] == "X" for e in doc["traceEvents"])

    def test_empty_trace_exports_cleanly(self, tmp_path):
        # zero events: still a valid document (metadata only) that
        # round-trips through disk
        tr = TraceRecorder()
        doc = tr.to_chrome()
        assert [e["ph"] for e in doc["traceEvents"]] == ["M"]
        path = tmp_path / "empty.json"
        tr.write(path)
        assert json.loads(path.read_text()) == doc

    def test_write_with_unclosed_span_omits_it(self, tmp_path):
        # a span records on __exit__; writing mid-span must not emit a
        # half-open event (and must not corrupt the document)
        tr = TraceRecorder()
        with tr.span("outer"):
            with tr.span("closed"):
                pass
            path = tmp_path / "mid.json"
            tr.write(path)
            doc = json.loads(path.read_text())
            names = [e["name"] for e in doc["traceEvents"] if e["ph"] == "X"]
            assert names == ["closed"]  # "outer" is still open
        # after the block closes, a re-export includes it
        names = [e["name"] for e in tr.to_chrome()["traceEvents"] if e["ph"] == "X"]
        assert sorted(names) == ["closed", "outer"]

    def test_numpy_bool_and_scalar_args_round_trip(self):
        tr = TraceRecorder()
        with tr.span(
            "np2", ok=np.bool_(True), nope=np.bool_(False),
            n32=np.int32(-3), f32=np.float32(0.25),
        ):
            pass
        args = json.loads(json.dumps(tr.to_chrome()))["traceEvents"][1]["args"]
        assert args["ok"] is True and args["nope"] is False
        assert args["n32"] == -3
        assert args["f32"] == 0.25

    def test_timestamps_are_relative_and_ordered(self):
        tr = TraceRecorder()
        with tr.span("first"):
            pass
        with tr.span("second"):
            pass
        xs = [e for e in tr.to_chrome()["traceEvents"] if e["ph"] == "X"]
        assert all(e["ts"] >= 0.0 for e in xs)
        assert xs[0]["ts"] <= xs[1]["ts"]


class TestBoundedTrace:
    def test_default_capacity(self):
        assert TraceRecorder().capacity is None
        assert Recorder.flight().trace.capacity == DEFAULT_FLIGHT_CAPACITY

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            TraceRecorder(0)

    def test_bounded_retention_keeps_newest(self):
        tr = TraceRecorder(8)
        for i in range(20):
            with tr.span("work", i=i):
                pass
        assert len(tr) == 8
        assert [s["args"]["i"] for s in tr.spans("work")] == list(range(12, 20))
        tr.clear()
        assert len(tr) == 0 and tr.spans() == []
        with tr.span("work", i=20):
            pass
        assert [s["args"]["i"] for s in tr.spans()] == [20]

    def test_chrome_export_reads_the_retained_window(self, tmp_path):
        tr = TraceRecorder(4)
        for i in range(6):
            with tr.span("s", i=i):
                pass
        path = tr.write(tmp_path / "flight.json")
        spans = load_trace(path)
        assert [s["args"]["i"] for s in spans] == [2, 3, 4, 5]

    def test_snapshot_last_and_name_filters(self):
        tr = TraceRecorder()
        for i in range(5):
            with tr.span("a", i=i):
                pass
            with tr.span("b", i=i):
                pass
        snap = tr.snapshot(last=3)
        assert [(s["name"], s["args"]["i"]) for s in snap] == [("b", 3), ("a", 4), ("b", 4)]
        only_a = tr.snapshot(name="a")
        assert [s["args"]["i"] for s in only_a] == [0, 1, 2, 3, 4]
        assert {s["name"] for s in only_a} == {"a"}
        # JSON-safe: must serialize without a custom encoder
        json.dumps(snap)

    def test_recorder_flight_bounds_the_trace(self):
        rec = Recorder.flight(capacity=2)
        for i in range(5):
            with rec.span("q", i=i):
                pass
        assert [s["args"]["i"] for s in rec.trace.spans()] == [3, 4]
        # metrics facade still works alongside the bounded trace
        rec.inc("events", 5)
        assert rec.summary()["counters"]["events"] == 5
