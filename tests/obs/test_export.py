"""OpenMetrics exposition: text format, cumulative buckets."""

import math

from repro.obs import MetricsRegistry, Recorder, render_openmetrics, sanitize_metric_name


def _populated_registry():
    reg = MetricsRegistry()
    reg.inc("cache.hits", 3)
    reg.set_gauge("cache.size", 2.0)
    h = reg.histogram("service.query_ms", buckets=[1.0, 10.0, 100.0])
    for v in (0.5, 5.0, 50.0, 500.0):
        h.observe(v)
    return reg


class TestSanitize:
    def test_dots_become_underscores(self):
        assert sanitize_metric_name("service.query_ms") == "service_query_ms"

    def test_arbitrary_chars_replaced(self):
        assert sanitize_metric_name("a b/c-d") == "a_b_c_d"

    def test_leading_digit_prefixed(self):
        assert sanitize_metric_name("9lives") == "_9lives"

    def test_colon_allowed(self):
        assert sanitize_metric_name("ns:metric") == "ns:metric"


class TestRenderOpenmetrics:
    def test_ends_with_eof(self):
        assert render_openmetrics(MetricsRegistry()).endswith("# EOF\n")

    def test_counter_family(self):
        text = render_openmetrics(_populated_registry())
        assert "# TYPE repro_cache_hits counter" in text
        assert "repro_cache_hits_total 3" in text

    def test_gauge_family(self):
        text = render_openmetrics(_populated_registry())
        assert "# TYPE repro_cache_size gauge" in text
        assert "repro_cache_size 2" in text

    def test_histogram_buckets_are_cumulative(self):
        text = render_openmetrics(_populated_registry())
        lines = [l for l in text.splitlines() if "_bucket" in l]
        counts = [int(l.rsplit(" ", 1)[1]) for l in lines]
        assert counts == sorted(counts)  # cumulative, never decreasing
        assert counts[-1] == 4  # +Inf bucket equals the observation count
        assert 'le="+Inf"' in lines[-1]

    def test_histogram_count_and_sum(self):
        text = render_openmetrics(_populated_registry())
        assert "repro_service_query_ms_count 4" in text
        assert "repro_service_query_ms_sum 555.5" in text

    def test_prefix_override_and_empty_prefix(self):
        reg = _populated_registry()
        assert "app_cache_hits_total" in render_openmetrics(reg, prefix="app")
        assert "\ncache_hits_total 3" in render_openmetrics(reg, prefix="")

    def test_recorder_unwraps_to_its_registry(self):
        rec = Recorder()
        rec.inc("cache.hits", 7)
        assert "repro_cache_hits_total 7" in render_openmetrics(rec)

    def test_nan_gauge_spelled_out(self):
        reg = MetricsRegistry()
        reg.set_gauge("weird", math.nan)
        assert "repro_weird NaN" in render_openmetrics(reg)

    def test_empty_histogram_exposes_zero_counts(self):
        reg = MetricsRegistry()
        reg.histogram("lat", buckets=[1.0])
        text = render_openmetrics(reg)
        assert "repro_lat_count 0" in text
        assert "repro_lat_sum 0" in text
