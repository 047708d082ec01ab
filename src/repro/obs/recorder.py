"""The :class:`Recorder` facade: one handle threaded through the hot layers.

A recorder bundles the two observability surfaces —

- a :class:`~repro.obs.trace.TraceRecorder` (the timeline: spans and
  instants, Chrome-trace exportable), and
- a :class:`~repro.obs.metrics.MetricsRegistry` (the aggregates:
  counters, gauges, latency histograms)

— behind the small vocabulary the instrumented layers use: ``span``,
``instant``, ``inc``, ``observe``, ``set_gauge``.  Every choke point in
the repo takes ``recorder=None`` and guards with plain truthiness::

    if recorder:
        with recorder.span("relax-wave", kernel=kernel) as sp:
            ...

so the disabled path (``None`` *or* :data:`NO_RECORDER`) costs one falsy
check, CI-gated at <3% on the KERNEL bench smoke (``repro trace
--overhead-smoke``).  Stage sites that wrap a block use the
conditional-expression form, ``with recorder.span("filter:AL") if
recorder else _NO_SPAN:``, with ``_NO_SPAN`` a shared
:func:`~contextlib.nullcontext`.  :data:`NO_RECORDER` exists for call sites that
want an always-valid object to forward rather than a ``None`` sentinel;
it is falsy, and every method is a no-op.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Any, ContextManager, Iterator

from .metrics import MetricsRegistry
from .trace import _NULL_SPAN, Span, TraceRecorder, _NullSpan

__all__ = ["Recorder", "NullRecorder", "NO_RECORDER"]


class Recorder:
    """Unified tracing + metrics handle (see module docstring).

    Pass ``trace=``/``metrics=`` to share either half across recorders
    (e.g. one process-wide registry under several per-request traces);
    omitted halves are created fresh.
    """

    enabled = True

    def __init__(
        self, trace: TraceRecorder | None = None, metrics: MetricsRegistry | None = None
    ) -> None:
        self.trace = trace if trace is not None else TraceRecorder()
        self.metrics = metrics if metrics is not None else MetricsRegistry()

    @classmethod
    def flight(
        cls,
        capacity: int | None = None,
        metrics: MetricsRegistry | None = None,
        triggers: Any = (),
    ) -> "Recorder":
        """A recorder whose trace half is a bounded
        :class:`~repro.obs.flight.FlightRecorder` — the always-on
        production configuration (fixed memory, anomaly triggers)."""
        from .flight import DEFAULT_FLIGHT_CAPACITY, FlightRecorder

        cap = capacity if capacity is not None else DEFAULT_FLIGHT_CAPACITY
        return cls(trace=FlightRecorder(cap, triggers=triggers), metrics=metrics)

    def __bool__(self) -> bool:
        return True

    # -- tracing -------------------------------------------------------------

    def span(self, name: str, **args: Any) -> Span:
        return self.trace.span(name, **args)

    def instant(self, name: str, **args: Any) -> None:
        self.trace.instant(name, **args)

    def context(self, **args: Any) -> ContextManager[None]:
        """Ambient span args for a scope (request ids and the like):
        every span/instant recorded inside carries them.  See
        :meth:`TraceRecorder.context`."""
        return self.trace.context(**args)

    # -- metrics -------------------------------------------------------------

    def inc(self, name: str, n: int = 1) -> None:
        self.metrics.inc(name, n)

    def observe(self, name: str, value: float) -> None:
        self.metrics.observe(name, value)

    def set_gauge(self, name: str, value: float) -> None:
        self.metrics.set_gauge(name, value)

    # -- reporting -----------------------------------------------------------

    def write_trace(
        self, path: str | os.PathLike[str], process_name: str = "repro"
    ) -> str:
        """Export the trace as Chrome trace-event JSON; returns the path."""
        return self.trace.write(path, process_name=process_name)

    def summary(self) -> dict[str, Any]:
        """The metrics snapshot (counters/gauges/histogram summaries)."""
        return self.metrics.snapshot()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Recorder<{len(self.trace)} events, {len(self.metrics)} metrics>"


class NullRecorder:
    """Disabled recorder: falsy, every method a no-op.

    ``trace``/``metrics`` are ``None`` — instrumented code must gate on
    the recorder's truthiness before touching either, which is also what
    keeps the disabled path at one branch per choke point.
    """

    __slots__ = ()
    enabled = False
    trace = None
    metrics = None

    def __bool__(self) -> bool:
        return False

    def span(self, _name: str, **_args: Any) -> _NullSpan:
        return _NULL_SPAN

    def instant(self, _name: str, **_args: Any) -> None:
        pass

    @contextmanager
    def context(self, **_args: Any) -> Iterator[None]:
        yield

    def inc(self, _name: str, _n: int = 1) -> None:
        pass

    def observe(self, _name: str, _value: float) -> None:
        pass

    def set_gauge(self, _name: str, _value: float) -> None:
        pass

    def write_trace(
        self, _path: str | os.PathLike[str], process_name: str = "repro"
    ) -> None:
        return None

    def summary(self) -> dict[str, Any]:
        return {}


#: shared disabled-recorder singleton
NO_RECORDER = NullRecorder()
