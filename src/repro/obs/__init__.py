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
                                       clock, thread-id aware, optionally
                                       bounded to the newest events,
                                       exported as Chrome trace-event
                                       JSON (opens in Perfetto /
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
                                       ``None`` is the disabled path
:mod:`~repro.obs.report`               :func:`build_report` /
                                       :func:`render_markdown` /
                                       :func:`render_html` — a recorded
                                       run (or saved trace JSON) as one
                                       self-contained run report
                                       (``repro report``)
:mod:`~repro.obs.export`               :func:`render_openmetrics` — the
                                       registry as OpenMetrics text
                                       (``repro metrics``)
=====================================  ====================================

The package sits below every solver layer (stdlib only — it imports
nothing from the rest of the repo, not even NumPy), so anything may
depend on it without cycles.  The enabled serving path is CI-gated at
<5% (``repro trace --flight-smoke``).
"""

from __future__ import annotations

from .export import render_openmetrics, sanitize_metric_name
from .flight import SlowQueryLog
from .metrics import (
    BUCKET_PRESETS,
    DEFAULT_LATENCY_BUCKETS_MS,
    LATENCY_MS_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .recorder import DEFAULT_FLIGHT_CAPACITY, Recorder
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
    CheckResult,
    LatencyTarget,
    SLOResult,
    SLOSpec,
    evaluate,
    export_slo_gauges,
    load_slo_path,
    parse_slo_data,
    render_slo_text,
)
from .trace import Span, TraceRecorder

__all__ = [
    "Recorder",
    "TraceRecorder",
    "Span",
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
    "SLOSpec",
    "LatencyTarget",
    "AvailabilityObjective",
    "CheckResult",
    "SLOResult",
    "load_slo_path",
    "parse_slo_data",
    "evaluate",
    "export_slo_gauges",
    "render_slo_text",
]
