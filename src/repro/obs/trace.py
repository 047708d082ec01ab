"""Low-overhead span tracing with Chrome trace-event export.

The paper's §VI.C argument ("where does phase time go?") needs stage
*totals*; a production serving tier needs the *timeline* — which shard
step overlapped which exchange, how long each superstep's barrier was,
where a p99 query spent its budget.  :class:`TraceRecorder` is that
timeline, and the totals are its per-label span sums
(:func:`repro.obs.report.stage_attribution`).  It records begin/end
spans and instant events on the monotonic clock
(``time.perf_counter_ns``), tagged with the recording thread's id,
appended to one in-memory list (an ``list.append`` per event — safe to call from pool-transport worker
threads under the GIL, which is exactly how the sharded stepper's
per-shard spans land on distinct ``tid`` lanes).

Export is the Chrome trace-event JSON format (``"X"`` complete events
plus ``"i"`` instants), so any recorded run opens directly in Perfetto
or ``chrome://tracing`` with no post-processing.

The disabled path follows the null-object pattern:
:data:`NO_TRACE` hands back one shared no-op span, so code threaded with
a recorder but running without one costs a falsy check per choke point.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from typing import Any, Iterator, Protocol

__all__ = ["Span", "TraceRecorder", "NullTrace", "NO_TRACE"]

#: one recorded event: phase, name, t0 ns, duration ns, thread id, args
_Event = tuple[str, str, int, int, int, "dict[str, Any]"]


class _EventStore(Protocol):
    """What the recorder needs from its event storage — a plain list by
    default; :class:`repro.obs.flight.FlightRecorder` substitutes a
    bounded ring with the same surface."""

    def append(self, event: _Event) -> None: ...

    def clear(self) -> None: ...

    def __len__(self) -> int: ...

    def __iter__(self) -> Iterator[_Event]: ...


def _json_safe(value: Any) -> Any:
    """Coerce span-arg values into JSON-serializable scalars."""
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    item = getattr(value, "item", None)  # numpy scalars
    if item is not None:
        try:
            return item()
        except (TypeError, ValueError):
            pass
    return str(value)


class Span:
    """One in-flight span; records a complete (``"X"``) event on exit.

    ``args`` stays mutable until the span closes, so values only known
    at the end of the work (touched counts, per-round deltas) can be
    attached via :meth:`set` inside the ``with`` block.
    """

    __slots__ = ("_trace", "name", "args", "_t0")

    _trace: "TraceRecorder"
    name: str
    args: dict[str, Any]
    _t0: int

    def __init__(self, trace: "TraceRecorder", name: str, args: dict[str, Any]) -> None:
        self._trace = trace
        self.name = name
        self.args = args
        self._t0 = 0

    def set(self, **args: Any) -> "Span":
        """Attach (or overwrite) span args; chainable."""
        self.args.update(args)
        return self

    def __enter__(self) -> "Span":
        self._t0 = time.perf_counter_ns()
        return self

    def __exit__(self, *exc: object) -> bool:
        t1 = time.perf_counter_ns()
        self._trace._record(
            ("X", self.name, self._t0, t1 - self._t0, threading.get_ident(), self.args)
        )
        return False


class TraceRecorder:
    """Accumulates span/instant events; exports Chrome trace JSON.

    Events are stored as plain tuples (no per-event object churn beyond
    the span itself); timestamps are monotonic nanoseconds rebased to
    the recorder's construction time at export.
    """

    enabled = True

    def __init__(self) -> None:
        self._events: _EventStore = []
        self._t0 = time.perf_counter_ns()
        #: ambient-arg stack (see :meth:`context`); empty = zero overhead
        self._context: list[dict[str, Any]] = []

    def span(self, name: str, **args: Any) -> Span:
        """A context-managed span: ``with trace.span("phase", wave=8):``."""
        if self._context:
            merged = dict(self._context[-1])
            merged.update(args)
            args = merged
        return Span(self, name, args)

    def instant(self, name: str, **args: Any) -> None:
        """Record a zero-duration marker event."""
        if self._context:
            merged = dict(self._context[-1])
            merged.update(args)
            args = merged
        self._record(
            ("i", name, time.perf_counter_ns(), 0, threading.get_ident(), args)
        )

    def _record(self, event: _Event) -> None:
        """Store one finished event (the flight recorder overrides this
        to write into its ring and run anomaly triggers)."""
        self._events.append(event)

    @contextmanager
    def context(self, **args: Any) -> Iterator[None]:
        """Attach ambient args to every span/instant recorded inside.

        Contexts nest (inner values win on key collision), and the stack
        is **recorder-scoped, not thread-scoped** on purpose: a sharded
        solve fans its shard steps out on pool threads, and those
        ``shard-step`` spans must still carry the enclosing request's
        ``request_id`` — which a thread-local could not deliver.  The
        repo's serving tier drains synchronously (one round in flight per
        recorder), which is what makes the recorder-scoped stack sound.
        Explicit span args always beat ambient ones.
        """
        merged = dict(self._context[-1]) if self._context else {}
        merged.update(args)
        self._context.append(merged)
        try:
            yield
        finally:
            self._context.pop()

    def __len__(self) -> int:
        return len(self._events)

    def __bool__(self) -> bool:
        return True

    def clear(self) -> None:
        self._events.clear()

    def spans(self, name: str | None = None) -> list[dict[str, Any]]:
        """Recorded complete spans as dicts (optionally filtered by name).

        ``ts_us``/``dur_us`` are microseconds since the recorder was
        constructed — the same values the Chrome export carries.
        """
        out: list[dict[str, Any]] = []
        for ph, ev_name, t0, dur, tid, args in self._events:
            if ph != "X" or (name is not None and ev_name != name):
                continue
            out.append(
                {
                    "name": ev_name,
                    "ts_us": (t0 - self._t0) / 1e3,
                    "dur_us": dur / 1e3,
                    "tid": tid,
                    "args": args,
                }
            )
        return out

    def to_chrome(self, process_name: str = "repro") -> dict[str, Any]:
        """The trace as a Chrome trace-event JSON object.

        Every event carries the ``name``/``ph``/``ts``/``pid``/``tid``
        fields the Perfetto/trace-viewer schema requires; spans are
        ``"X"`` complete events with ``dur``, instants are ``"i"`` with
        thread scope.  Timestamps are microseconds (the format's unit).
        """
        pid = os.getpid()
        events: list[dict[str, Any]] = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": process_name},
            }
        ]
        for ph, name, t0, dur, tid, args in self._events:
            ev: dict[str, Any] = {
                "name": name,
                "ph": ph,
                "pid": pid,
                "tid": tid,
                "ts": (t0 - self._t0) / 1e3,
                "args": {k: _json_safe(v) for k, v in args.items()},
            }
            if ph == "X":
                ev["dur"] = dur / 1e3
            elif ph == "i":
                ev["s"] = "t"
            events.append(ev)
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write(self, path: str | os.PathLike[str], process_name: str = "repro") -> str:
        """Write the Chrome trace JSON to *path*; returns the path."""
        with open(path, "w") as fh:
            json.dump(self.to_chrome(process_name), fh)
        return str(path)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TraceRecorder<{len(self._events)} events>"


class _NullSpan:
    """Shared no-op span: reentrant, stateless, arg-swallowing."""

    __slots__ = ()

    def set(self, **_args: Any) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTrace:
    """Disabled trace: same surface, no events, ~zero overhead."""

    __slots__ = ()
    enabled = False

    def span(self, _name: str, **_args: Any) -> _NullSpan:
        return _NULL_SPAN

    def instant(self, _name: str, **_args: Any) -> None:
        pass

    @contextmanager
    def context(self, **_args: Any) -> Iterator[None]:
        yield

    def __len__(self) -> int:
        return 0

    def __bool__(self) -> bool:
        return False

    def clear(self) -> None:
        pass

    def spans(self, name: str | None = None) -> list[dict[str, Any]]:
        return []


#: shared disabled-trace singleton (the null-object pattern)
NO_TRACE = NullTrace()
