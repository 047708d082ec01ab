"""Process-wide metrics: counters, gauges, fixed-bucket latency histograms.

The serving-tier ROADMAP items (SLO-gated latency, exchange-volume
regressions, kernel-choice drift) all need *aggregates* that survive a
run, where the trace (:mod:`repro.obs.trace`) records the timeline.
:class:`MetricsRegistry` is the one named surface for those aggregates:

- :class:`Counter` — monotone event counts (cache hits, repairs run);
- :class:`Gauge` — last-written values (cache size);
- :class:`Histogram` — fixed-bucket distributions with p50/p90/p99
  summaries, sized for millisecond latencies by default (geometric
  buckets from 1 µs to ~10 min, so one relative-error bound covers both
  a cache hit and a cold sharded solve).

Instruments are plain-attribute hot paths (``inc`` is one integer add)
and the registry is get-or-create keyed by name, so call sites never
pre-declare.  ``snapshot`` renders everything to plain dicts
for the CLI summary table and the bench JSON; ``reset`` zeroes in place
(instrument handles stay valid).

Empty-distribution sentinel: a :class:`Histogram` with zero
observations reports ``NaN`` from :meth:`Histogram.percentile`,
:attr:`Histogram.mean`, and every value field of
:meth:`Histogram.summary` except ``count``/``sum`` — "no data" must not
be confusable with a real 0 ms latency.  ``count`` stays 0 and ``sum``
0.0 (they are exact), matching what an OpenMetrics scrape of the empty
histogram exposes.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from math import ceil, inf, nan
from typing import Any, Iterable, Iterator

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS_MS",
    "LATENCY_MS_BUCKETS",
    "BUCKET_PRESETS",
]

#: default histogram bucket upper bounds, in milliseconds: geometric
#: ×2 ladder from 1 µs to ~9 minutes (30 buckets + overflow)
DEFAULT_LATENCY_BUCKETS_MS = tuple(1e-3 * 2**i for i in range(30))

#: millisecond-scale serving-latency ladder: sub-ms resolution where the
#: cache-hit / small-batch mass lives (50 µs steps up to 1 ms), then a
#: 1–2.5–5 decade ladder out to 10 s.  The SLO percentiles interpolate
#: inside one bucket, so resolution here bounds their error directly —
#: the coarse geometric default puts all of 0.5–1 ms in a single bucket.
LATENCY_MS_BUCKETS = (
    0.05, 0.1, 0.25, 0.5, 0.75, 1.0,
    2.5, 5.0, 7.5, 10.0, 25.0, 50.0, 75.0, 100.0,
    250.0, 500.0, 1000.0, 2500.0, 5000.0, 10000.0,
)

#: named bucket presets ``Histogram``/``MetricsRegistry.histogram``
#: accept in place of an explicit bound sequence
BUCKET_PRESETS: dict[str, tuple[float, ...]] = {
    "default": DEFAULT_LATENCY_BUCKETS_MS,
    "latency-ms": LATENCY_MS_BUCKETS,
}


class Counter:
    """A monotone event counter."""

    __slots__ = ("value",)

    value: int

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def reset(self) -> None:
        self.value = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Counter<{self.value}>"


class Gauge:
    """A last-value-wins instrument."""

    __slots__ = ("value",)

    value: float

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def reset(self) -> None:
        self.value = 0.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Gauge<{self.value}>"


class Histogram:
    """Fixed-bucket distribution with interpolated percentile summaries.

    *buckets* are ascending upper bounds; observations above the last
    bound land in an overflow bucket.  Exact ``min``/``max``/``sum`` are
    tracked alongside, and percentile interpolation clamps into
    ``[min, max]`` — so an empty histogram reports the documented ``NaN``
    sentinel (no data is not a 0 ms latency), a single sample reports
    itself at every percentile, and all-same-bucket data never reports a
    value outside what was actually observed.
    """

    __slots__ = ("bounds", "counts", "count", "total", "min", "max")

    bounds: tuple[float, ...]
    counts: list[int]
    count: int
    total: float
    min: float
    max: float

    def __init__(self, buckets: "Iterable[float] | str | None" = None) -> None:
        if isinstance(buckets, str):
            try:
                buckets = BUCKET_PRESETS[buckets]
            except KeyError:
                raise ValueError(
                    f"unknown bucket preset {buckets!r}; "
                    f"known: {', '.join(sorted(BUCKET_PRESETS))}"
                ) from None
        bounds = tuple(buckets) if buckets is not None else DEFAULT_LATENCY_BUCKETS_MS
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError("histogram buckets must be a non-empty ascending sequence")
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # +1 = overflow
        self.count = 0
        self.total = 0.0
        self.min = inf
        self.max = -inf

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def percentile(self, q: float) -> float:
        """The interpolated *q*-th percentile (``NaN`` on an empty
        histogram — the documented no-observations sentinel)."""
        if not 0 <= q <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        if self.count == 0:
            return nan
        target = max(1, ceil(q / 100.0 * self.count))
        cum = 0
        for idx, c in enumerate(self.counts):
            if c == 0:
                continue
            if cum + c >= target:
                lo = 0.0 if idx == 0 else self.bounds[idx - 1]
                hi = self.bounds[idx] if idx < len(self.bounds) else self.max
                frac = (target - cum) / c
                value = lo + frac * (hi - lo)
                return float(min(max(value, self.min), self.max))
            cum += c
        return float(self.max)  # pragma: no cover - unreachable (count > 0)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else nan

    def summary(self) -> dict[str, float]:
        """count/sum/min/max/mean plus the p50/p90/p99 trio.

        With zero observations every value field is the ``NaN`` sentinel
        (``count`` 0 and ``sum`` 0.0 stay exact).
        """
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else nan,
            "max": self.max if self.count else nan,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
        }

    def reset(self) -> None:
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min = inf
        self.max = -inf

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Histogram<{self.count} obs, p50={self.percentile(50):.3g}>"


class MetricsRegistry:
    """Named get-or-create registry of counters, gauges, and histograms.

    Creation is locked (call sites race on first touch); the instrument
    hot paths themselves are single plain-attribute operations, which
    under the GIL is the same trade the rest of the repo makes for its
    counters.  One name maps to exactly one instrument kind — asking for
    a counter under an existing histogram name raises.
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._lock = threading.Lock()

    def _check_free(self, name: str, kind: dict[str, Any]) -> None:
        for store in (self._counters, self._gauges, self._histograms):
            if store is not kind and name in store:
                raise ValueError(f"metric {name!r} already registered as another kind")

    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            with self._lock:
                c = self._counters.get(name)
                if c is None:
                    self._check_free(name, self._counters)
                    c = self._counters[name] = Counter()
        return c

    def gauge(self, name: str) -> Gauge:
        g = self._gauges.get(name)
        if g is None:
            with self._lock:
                g = self._gauges.get(name)
                if g is None:
                    self._check_free(name, self._gauges)
                    g = self._gauges[name] = Gauge()
        return g

    def histogram(
        self, name: str, buckets: "Iterable[float] | str | None" = None
    ) -> Histogram:
        h = self._histograms.get(name)
        if h is None:
            with self._lock:
                h = self._histograms.get(name)
                if h is None:
                    self._check_free(name, self._histograms)
                    h = self._histograms[name] = Histogram(buckets)
        return h

    # -- convenience single-call forms --------------------------------------

    def inc(self, name: str, n: int = 1) -> None:
        self.counter(name).inc(n)

    def set_gauge(self, name: str, value: float) -> None:
        self.gauge(name).set(value)

    def observe(self, name: str, value: float) -> None:
        self.histogram(name).observe(value)

    # -- reporting -----------------------------------------------------------

    def items(self) -> Iterator[tuple[str, str, "Counter | Gauge | Histogram"]]:
        """Every instrument as ``(kind, name, instrument)``, sorted by
        name within each kind (counters, then gauges, then histograms).

        This is the exposition surface: :mod:`repro.obs.export` walks it
        to emit OpenMetrics text with the raw bucket counts the
        ``snapshot`` summaries deliberately collapse.  The name lists are
        copied under the creation lock, so a scrape iterating while other
        threads register fresh instruments never sees a mid-resize dict
        (the precondition for the async serving front end).
        """
        with self._lock:
            counters = sorted(self._counters.items())
            gauges = sorted(self._gauges.items())
            histograms = sorted(self._histograms.items())
        for name, c in counters:
            yield "counter", name, c
        for name, g in gauges:
            yield "gauge", name, g
        for name, h in histograms:
            yield "histogram", name, h

    def snapshot(self) -> dict[str, Any]:
        """Everything, as plain dicts: ``{"counters": {...}, "gauges":
        {...}, "histograms": {name: summary}}``.

        Like :meth:`items`, the instrument lists are copied under the
        creation lock before rendering — safe against concurrent
        registration (individual readings stay the GIL-granularity
        values the instruments themselves provide).
        """
        with self._lock:
            counters = sorted(self._counters.items())
            gauges = sorted(self._gauges.items())
            histograms = sorted(self._histograms.items())
        return {
            "counters": {k: c.value for k, c in counters},
            "gauges": {k: g.value for k, g in gauges},
            "histograms": {k: h.summary() for k, h in histograms},
        }

    def reset(self) -> None:
        """Zero every instrument in place (handles stay valid)."""
        with self._lock:
            for store in (self._counters, self._gauges, self._histograms):
                for inst in store.values():
                    inst.reset()

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MetricsRegistry<{len(self._counters)}c/"
            f"{len(self._gauges)}g/{len(self._histograms)}h>"
        )
