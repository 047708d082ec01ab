"""``repro.obs`` — the unified tracing + metrics substrate.

One observability layer under every subsystem (steppers, kernels,
shards, service, dynamic repair), replacing the fragmented telemetry
that grew per PR (stage timers in the solvers, ``ExchangeStats`` in the
exchange, bench-only JSON).  The solvers' §VI.C stages are spans too;
their shares are per-label span totals
(:func:`~repro.obs.report.stage_attribution`):

=====================================  ====================================
:mod:`~repro.obs.trace`                :class:`TraceRecorder` — span/
                                       instant timeline on the monotonic
                                       clock, thread-id aware, exported
                                       as Chrome trace-event JSON
                                       (opens in Perfetto /
                                       ``chrome://tracing``)
:mod:`~repro.obs.metrics`              :class:`MetricsRegistry` —
                                       counters, gauges, fixed-bucket
                                       latency histograms with
                                       p50/p90/p99 summaries
:mod:`~repro.obs.recorder`             :class:`Recorder` — the facade
                                       threaded through the hot layers
                                       (``solve_with(recorder=)``,
                                       ``QueryService(recorder=)``,
                                       ``repro trace`` / ``--trace``);
                                       :data:`NO_RECORDER` is the falsy
                                       disabled path
:mod:`~repro.obs.report`               :func:`build_report` /
                                       :func:`render_markdown` /
                                       :func:`render_html` — a recorded
                                       run (or saved trace JSON) as one
                                       self-contained run report
                                       (``repro report``)
:mod:`~repro.obs.export`               :func:`render_openmetrics` /
                                       :class:`MetricsServer` — the
                                       registry as OpenMetrics text and
                                       a scrape endpoint
                                       (``repro metrics``)
=====================================  ====================================

The package sits below every solver layer (stdlib only — it imports
nothing from the rest of the repo, not even NumPy), so anything may
depend on it without cycles.  Disabled-path cost is CI-gated at <3% on
the KERNEL bench smoke (``repro trace --overhead-smoke``).
"""

from __future__ import annotations

from .export import (
    OPENMETRICS_CONTENT_TYPE,
    MetricsServer,
    render_openmetrics,
    sanitize_metric_name,
)
from .flight import (
    DEFAULT_FLIGHT_CAPACITY,
    FlightRecorder,
    FlightTrigger,
    SlowQueryLog,
)
from .metrics import (
    BUCKET_PRESETS,
    DEFAULT_LATENCY_BUCKETS_MS,
    LATENCY_MS_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .recorder import NO_RECORDER, NullRecorder, Recorder
from .report import (
    RunReport,
    build_report,
    filter_spans_by_request,
    load_slow_queries,
    load_trace,
    render_html,
    render_markdown,
)
from .slo import (
    AvailabilityObjective,
    BurnRateMonitor,
    CheckResult,
    LatencyTarget,
    SLOResult,
    SLOSpec,
    evaluate,
    evaluate_summary,
    export_slo_gauges,
    load_slo_path,
    parse_slo_data,
    render_slo_text,
)
from .trace import NO_TRACE, NullTrace, Span, TraceRecorder

__all__ = [
    "Recorder",
    "NullRecorder",
    "NO_RECORDER",
    "TraceRecorder",
    "NullTrace",
    "NO_TRACE",
    "Span",
    "FlightRecorder",
    "FlightTrigger",
    "SlowQueryLog",
    "DEFAULT_FLIGHT_CAPACITY",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "DEFAULT_LATENCY_BUCKETS_MS",
    "LATENCY_MS_BUCKETS",
    "BUCKET_PRESETS",
    "RunReport",
    "build_report",
    "load_trace",
    "load_slow_queries",
    "filter_spans_by_request",
    "render_markdown",
    "render_html",
    "render_openmetrics",
    "sanitize_metric_name",
    "MetricsServer",
    "OPENMETRICS_CONTENT_TYPE",
    "SLOSpec",
    "LatencyTarget",
    "AvailabilityObjective",
    "CheckResult",
    "SLOResult",
    "BurnRateMonitor",
    "load_slo_path",
    "parse_slo_data",
    "evaluate",
    "evaluate_summary",
    "export_slo_gauges",
    "render_slo_text",
]
