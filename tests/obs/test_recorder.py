"""Recorder facade."""

from repro.obs import MetricsRegistry, Recorder, TraceRecorder


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
