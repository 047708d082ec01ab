"""Low-overhead span tracing with Chrome trace-event export.

The paper's §VI.C argument ("where does phase time go?") needs stage
*totals*; a production serving tier needs the *timeline* — which shard
step overlapped which exchange, how long each superstep's barrier was,
where a p99 query spent its budget.  :class:`TraceRecorder` is that
timeline, and the totals are its per-label span sums
(:func:`repro.obs.report.stage_attribution`).  It records begin/end
spans and instant events on the monotonic clock
(``time.perf_counter_ns``), tagged with the recording thread's id,
appended to one ``collections.deque`` (a ``deque.append`` per event —
safe to call from pool-transport worker threads under the GIL, which is
exactly how the sharded stepper's per-shard spans land on distinct
``tid`` lanes).

``TraceRecorder(capacity=N)`` keeps only the newest *N* events (the
deque's ``maxlen``), so an always-on serving process holds fixed memory
however long it runs; ``capacity=None`` keeps everything, which is what
one benchmarked solve wants.  :meth:`TraceRecorder.snapshot` hands the
newest spans out as JSON-safe dicts (what the slow-query log embeds).

Export is the Chrome trace-event JSON format (``"X"`` complete events
plus ``"i"`` instants), so any recorded run opens directly in Perfetto
or ``chrome://tracing`` with no post-processing.
"""

from __future__ import annotations

import json
import os
from collections import deque
from threading import get_ident
from time import perf_counter_ns
from typing import Any

__all__ = ["Span", "TraceRecorder"]

#: one recorded event: phase, name, t0 ns, duration ns, thread id, args
_Event = tuple[str, str, int, int, int, "dict[str, Any]"]


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
        self._t0 = perf_counter_ns()
        return self

    def __exit__(self, *exc: object) -> bool:
        t1 = perf_counter_ns()
        self._trace._events.append(
            ("X", self.name, self._t0, t1 - self._t0, get_ident(), self.args)
        )
        return False


class _Context:
    """What :meth:`TraceRecorder.context` returns: pushes the ambient args,
    merged over the enclosing ones, on entry and pops them on exit."""

    __slots__ = ("_stack", "_args")

    _stack: "list[dict[str, Any]]"
    _args: dict[str, Any]

    def __init__(self, stack: "list[dict[str, Any]]", args: dict[str, Any]) -> None:
        self._stack = stack
        self._args = args

    def __enter__(self) -> None:
        stack = self._stack
        stack.append({**stack[-1], **self._args} if stack else self._args)

    def __exit__(self, *exc: object) -> bool:
        self._stack.pop()
        return False


class TraceRecorder:
    """Accumulates span/instant events; exports Chrome trace JSON.

    Events are stored as plain tuples (no per-event object churn beyond
    the span itself); timestamps are monotonic nanoseconds rebased to
    the recorder's construction time at export.  *capacity* bounds the
    retained events to the newest *capacity* (``None`` = unbounded).
    :meth:`span` times a ``with`` block; :meth:`complete` records an
    interval the caller timed itself, which is what the serving tier's
    per-request spans use (no span object, no extra clock reading).
    """

    enabled = True

    def __init__(self, capacity: int | None = None) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError("trace capacity must be >= 1")
        self._events: deque[_Event] = deque(maxlen=capacity)
        self._t0 = perf_counter_ns()
        #: ambient-arg stack (see :meth:`context`); empty = zero overhead
        self._context: list[dict[str, Any]] = []

    def span(self, name: str, **args: Any) -> Span:
        """A context-managed span: ``with trace.span("phase", wave=8):``."""
        if self._context:
            args = {**self._context[-1], **args}
        return Span(self, name, args)

    def complete(self, name: str, t0_ns: int, t1_ns: int, **args: Any) -> None:
        """Record a span from *t0_ns* to *t1_ns* (``time.perf_counter_ns()``
        readings): the cheap form for a call site that reads the clock
        anyway, with no :class:`Span` object."""
        if self._context:
            args = {**self._context[-1], **args}
        self._events.append(("X", name, t0_ns, t1_ns - t0_ns, get_ident(), args))

    def instant(self, name: str, **args: Any) -> None:
        """Record a zero-duration marker event."""
        if self._context:
            args = {**self._context[-1], **args}
        self._events.append(("i", name, perf_counter_ns(), 0, get_ident(), args))

    def context(self, **args: Any) -> _Context:
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
        return _Context(self._context, args)

    @property
    def capacity(self) -> int | None:
        """The retained-event bound (``None`` = unbounded)."""
        return self._events.maxlen

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
        for ph, ev_name, t0, dur, tid, args in tuple(self._events):
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

    def snapshot(
        self, last: int | None = None, name: str | None = None
    ) -> list[dict[str, Any]]:
        """The newest complete spans as JSON-safe dicts, oldest first.

        *last* keeps only the most recent N; *name* filters by span
        name.  The walk starts at the newest event and stops after *last*
        matches, so a slow-query entry costs O(last) however long the
        trace is.  This is what the slow-query log embeds — small, plain,
        serializable.
        """
        out: list[dict[str, Any]] = []
        for ph, ev_name, t0, dur, _tid, args in reversed(tuple(self._events)):
            if last is not None and len(out) >= last:
                break
            if ph != "X" or (name is not None and ev_name != name):
                continue
            out.append(
                {
                    "name": ev_name,
                    "ts_us": round((t0 - self._t0) / 1e3, 1),
                    "dur_us": round(dur / 1e3, 1),
                    "args": {k: _json_safe(v) for k, v in args.items()},
                }
            )
        out.reverse()
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
        for ph, name, t0, dur, tid, args in tuple(self._events):
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
