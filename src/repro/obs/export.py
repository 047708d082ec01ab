"""OpenMetrics text exposition of a :class:`MetricsRegistry` snapshot.

The metrics half of :mod:`repro.obs` aggregates in process; this module
is how those aggregates leave the process in the format every scraping
stack (Prometheus, OpenTelemetry collectors, Grafana agent) ingests —
the `OpenMetrics text format
<https://github.com/OpenObservability/OpenMetrics>`_:

- :class:`~repro.obs.metrics.Counter` → a ``counter`` family with one
  ``_total`` sample;
- :class:`~repro.obs.metrics.Gauge` → a ``gauge`` family;
- :class:`~repro.obs.metrics.Histogram` → a ``histogram`` family with
  cumulative ``_bucket{le="..."}`` samples (the raw per-bucket counts,
  not the collapsed p50/p90/p99 summaries), ``_count``, and ``_sum`` —
  so the scraper's own quantile math sees exactly what the in-process
  interpolation saw.

Metric names are sanitized (``service.query_ms`` →
``repro_service_query_ms``) and the exposition ends with the mandatory
``# EOF`` terminator, so the output validates as OpenMetrics 1.0.
``repro metrics`` prints it or writes it to a file, and ``repro
slo-check`` / ``repro chaos`` ship it as CI artifacts.

Like the rest of :mod:`repro.obs` this module is stdlib-only and part
of the ``mypy --strict`` typing gate.
"""

from __future__ import annotations

import re
from math import isinf, isnan
from typing import Union

from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .recorder import Recorder

__all__ = ["sanitize_metric_name", "render_openmetrics"]

#: the sources :func:`render_openmetrics` accepts — a registry, or the
#: recorder facade wrapping one
MetricsSource = Union[MetricsRegistry, Recorder]

_INVALID_CHARS = re.compile(r"[^a-zA-Z0-9_:]")


def sanitize_metric_name(name: str) -> str:
    """Coerce *name* into the OpenMetrics name charset.

    Dots (the repo's metric-name separator) and every other character
    outside ``[a-zA-Z0-9_:]`` become underscores; a leading digit gains
    an underscore prefix.
    """
    cleaned = _INVALID_CHARS.sub("_", name)
    if cleaned and cleaned[0].isdigit():
        cleaned = "_" + cleaned
    return cleaned


def _fmt(value: float) -> str:
    """A float as OpenMetrics text: integers bare, specials spelled out."""
    if isnan(value):
        return "NaN"
    if isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    as_float = float(value)
    if as_float.is_integer() and abs(as_float) < 1e15:
        return str(int(as_float))
    return repr(as_float)


def _registry_of(metrics: MetricsSource) -> MetricsRegistry:
    if isinstance(metrics, Recorder):
        return metrics.metrics
    return metrics


def render_openmetrics(metrics: MetricsSource, prefix: str = "repro") -> str:
    """The full registry as OpenMetrics text (ending in ``# EOF``).

    *metrics* is a :class:`MetricsRegistry` or a :class:`Recorder`
    (whose registry half is used).  *prefix* namespaces every family
    (pass ``""`` for none).
    """
    lines: list[str] = []
    for kind, name, inst in _registry_of(metrics).items():
        family = sanitize_metric_name(f"{prefix}_{name}" if prefix else name)
        if isinstance(inst, Counter):
            lines.append(f"# TYPE {family} counter")
            lines.append(f"{family}_total {_fmt(inst.value)}")
        elif isinstance(inst, Gauge):
            lines.append(f"# TYPE {family} gauge")
            lines.append(f"{family} {_fmt(inst.value)}")
        elif isinstance(inst, Histogram):
            lines.append(f"# TYPE {family} histogram")
            cumulative = 0
            for bound, count in zip(inst.bounds, inst.counts):
                cumulative += count
                lines.append(
                    f'{family}_bucket{{le="{_fmt(bound)}"}} {cumulative}'
                )
            lines.append(f'{family}_bucket{{le="+Inf"}} {inst.count}')
            lines.append(f"{family}_count {inst.count}")
            lines.append(f"{family}_sum {_fmt(inst.total)}")
        else:  # pragma: no cover - items() yields exactly the three kinds
            raise TypeError(f"unknown instrument kind {kind!r} for {name!r}")
    lines.append("# EOF")
    return "\n".join(lines) + "\n"
