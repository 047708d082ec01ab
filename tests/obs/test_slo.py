"""SLO engine: spec parsing, bucket-exact evaluation, budgets."""

import math

import pytest

from repro.obs import (
    AvailabilityObjective,
    LatencyTarget,
    MetricsRegistry,
    SLOSpec,
    evaluate,
    export_slo_gauges,
    load_slo_path,
    parse_slo_data,
    render_openmetrics,
    render_slo_text,
)
from repro.obs.slo import _parse_minimal_toml

SLO_TOML = """\
[[slo]]
name = "query-latency"
metric = "service.query_ms"

[[slo.latency]]
percentile = 50
threshold_ms = 5.0

[[slo.latency]]
percentile = 99
threshold_ms = 50.0

[slo.availability]
objective = 0.99
threshold_ms = 100.0

[[slo]]
name = "mutation-latency"
metric = "service.mutate_ms"

[[slo.latency]]
percentile = 99
threshold_ms = 50.0
"""


class TestSpecs:
    def test_latency_target_validation(self):
        with pytest.raises(ValueError):
            LatencyTarget(percentile=0, threshold_ms=1.0)
        with pytest.raises(ValueError):
            LatencyTarget(percentile=101, threshold_ms=1.0)
        with pytest.raises(ValueError):
            LatencyTarget(percentile=99, threshold_ms=-1.0)

    def test_availability_validation_and_budget(self):
        with pytest.raises(ValueError):
            AvailabilityObjective(objective=1.0, threshold_ms=1.0)
        a = AvailabilityObjective(objective=0.999, threshold_ms=100.0)
        assert a.error_budget == pytest.approx(0.001)

    def test_spec_needs_at_least_one_target(self):
        with pytest.raises(ValueError):
            SLOSpec(name="empty", metric="m")

    def test_spec_needs_name_and_metric(self):
        with pytest.raises(ValueError):
            SLOSpec(name="", metric="m", latency=(LatencyTarget(99, 1.0),))


class TestTomlLoading:
    def test_load_from_file(self, tmp_path):
        path = tmp_path / "slo.toml"
        path.write_text(SLO_TOML)
        specs = load_slo_path(path)
        assert [s.name for s in specs] == ["query-latency", "mutation-latency"]
        q = specs[0]
        assert q.metric == "service.query_ms"
        assert [t.percentile for t in q.latency] == [50.0, 99.0]
        assert q.availability == AvailabilityObjective(0.99, 100.0)
        assert specs[1].availability is None

    def test_minimal_parser_matches_tomllib(self):
        tomllib = pytest.importorskip("tomllib")
        assert parse_slo_data(_parse_minimal_toml(SLO_TOML)) == parse_slo_data(
            tomllib.loads(SLO_TOML)
        )

    def test_committed_slo_toml_parses_both_ways(self):
        from pathlib import Path

        path = Path(__file__).resolve().parents[2] / "slo.toml"
        specs = parse_slo_data(_parse_minimal_toml(path.read_text()))
        assert load_slo_path(path) == specs
        assert any(s.availability is not None for s in specs)

    def test_no_entries_raises(self):
        with pytest.raises(ValueError, match=r"\[\[slo\]\]"):
            parse_slo_data({})


def _specs():
    return [
        SLOSpec(
            name="q",
            metric="lat",
            latency=(LatencyTarget(99, 10.0),),
            availability=AvailabilityObjective(0.95, 10.0),
        )
    ]


def _registry(good: int, bad: int) -> MetricsRegistry:
    reg = MetricsRegistry()
    h = reg.histogram("lat", buckets=[10.0, 100.0])
    for _ in range(good):
        h.observe(1.0)
    for _ in range(bad):
        h.observe(50.0)
    return reg


class TestEvaluate:
    def test_all_good_passes_with_full_budget(self):
        result = evaluate(_specs(), _registry(good=100, bad=0))
        assert result.ok and not result.failures
        avail = [c for c in result.checks if c.kind == "availability"][0]
        assert avail.observed == 1.0
        assert avail.budget_remaining == pytest.approx(1.0)

    def test_breach_fails_and_reports_budget_overdraw(self):
        # 10/100 bad = 10% bad against a 5% budget: blown twice over
        result = evaluate(_specs(), _registry(good=90, bad=10))
        assert not result.ok
        avail = [c for c in result.checks if c.kind == "availability"][0]
        assert avail.observed == pytest.approx(0.9)
        assert avail.budget_remaining == pytest.approx(1.0 - 0.10 / 0.05)

    def test_latency_check_uses_histogram_percentile(self):
        result = evaluate(_specs(), _registry(good=0, bad=100))
        lat = [c for c in result.checks if c.kind == "latency"][0]
        assert not lat.ok
        assert lat.observed > 10.0

    def test_missing_metric_passes_vacuously(self):
        result = evaluate(_specs(), MetricsRegistry())
        assert result.ok
        assert all(c.note == "no observations" for c in result.checks)
        assert all(math.isnan(c.observed) for c in result.checks)

    def test_bucket_aligned_threshold_is_exact(self):
        # the 10.0 threshold sits ON a bucket bound: observations at 1.0
        # are good, at 50.0 bad — nothing straddles
        result = evaluate(_specs(), _registry(good=95, bad=5))
        avail = [c for c in result.checks if c.kind == "availability"][0]
        assert avail.observed == pytest.approx(0.95)
        assert avail.ok  # exactly on objective


class TestExposition:
    def test_export_slo_gauges_and_openmetrics(self):
        reg = _registry(good=90, bad=10)
        result = evaluate(_specs(), reg)
        export_slo_gauges(result, reg)
        gauges = reg.snapshot()["gauges"]
        assert gauges["slo.q.ok"] == 0.0
        assert gauges["slo.q.p99_ok"] == 0.0  # 10% bad drags p99 over 10ms
        assert gauges["slo.q.p99_ms"] > 10.0
        assert gauges["slo.q.availability"] == pytest.approx(0.9)
        text = render_openmetrics(reg)
        assert "repro_slo_q_ok 0" in text

    def test_render_slo_text(self):
        result = evaluate(_specs(), _registry(good=90, bad=10))
        text = render_slo_text(result)
        assert "[FAIL] q:" in text
        assert text.splitlines()[-1].startswith("SLO check: FAIL")
        passing = render_slo_text(evaluate(_specs(), _registry(good=100, bad=0)))
        assert "PASS" in passing.splitlines()[-1]
