"""Recorder facade and the NO_RECORDER null object."""

from repro.obs import (
    NO_RECORDER,
    MetricsRegistry,
    NullRecorder,
    Recorder,
    TraceRecorder,
)


class TestRecorder:
    def test_truthy_and_enabled(self):
        rec = Recorder()
        assert rec
        assert rec.enabled

    def test_bundles_fresh_halves(self):
        rec = Recorder()
        assert isinstance(rec.trace, TraceRecorder)
        assert isinstance(rec.metrics, MetricsRegistry)

    def test_shares_supplied_halves(self):
        metrics = MetricsRegistry()
        trace = TraceRecorder()
        rec = Recorder(trace=trace, metrics=metrics)
        assert rec.trace is trace and rec.metrics is metrics

    def test_delegates_to_both_halves(self):
        rec = Recorder()
        with rec.span("phase", k=1):
            pass
        rec.instant("mark")
        rec.inc("events", 2)
        rec.observe("lat_ms", 0.5)
        rec.set_gauge("depth", 3)
        assert len(rec.trace) == 2
        snap = rec.summary()
        assert snap["counters"] == {"events": 2}
        assert snap["gauges"] == {"depth": 3}
        assert snap["histograms"]["lat_ms"]["count"] == 1

    def test_write_trace(self, tmp_path):
        rec = Recorder()
        with rec.span("x"):
            pass
        path = rec.write_trace(tmp_path / "t.json")
        assert path == str(tmp_path / "t.json")


class TestNullRecorder:
    def test_falsy_disabled_singleton(self):
        assert not NO_RECORDER
        assert not NO_RECORDER.enabled
        assert isinstance(NO_RECORDER, NullRecorder)
        assert NO_RECORDER.trace is None and NO_RECORDER.metrics is None

    def test_every_method_is_a_noop(self, tmp_path):
        with NO_RECORDER.span("x", a=1) as sp:
            sp.set(b=2)
        NO_RECORDER.instant("y")
        NO_RECORDER.inc("c")
        NO_RECORDER.observe("h", 1.0)
        NO_RECORDER.set_gauge("g", 2.0)
        assert NO_RECORDER.write_trace(tmp_path / "never.json") is None
        assert not (tmp_path / "never.json").exists()
        assert NO_RECORDER.summary() == {}
