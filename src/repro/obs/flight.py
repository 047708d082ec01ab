"""The structured slow-query log.

:class:`SlowQueryLog` is the request-granular record the serving tier
writes: a bounded, JSONL-exportable log of every query whose latency
crossed a threshold, carrying the request id, the plan shape, the
stepper spec, the work counters, and a snapshot of the newest trace
spans (:meth:`repro.obs.TraceRecorder.snapshot`) — everything "why was
*this* query slow?" needs, captured at the moment it happened.
``repro report`` renders it and ``repro slo-check`` ships it as the CI
artifact.  The trace it snapshots is usually the bounded one
:meth:`repro.obs.Recorder.flight` builds (the flight recording you pull
after something went wrong), but any recorder's trace works.

Like the rest of :mod:`repro.obs` this module is stdlib-only and part of
the ``mypy --strict`` typing gate.
"""

from __future__ import annotations

import json
import os
import time
from collections import deque
from typing import Any, Iterator, Mapping

from .trace import _json_safe

__all__ = ["SlowQueryLog"]


def _sanitize(value: Any) -> Any:
    """Recursively coerce a slow-query entry into JSON-serializable data."""
    if isinstance(value, Mapping):
        return {str(k): _sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sanitize(v) for v in value]
    return _json_safe(value)


class SlowQueryLog:
    """A bounded structured log of requests that blew a latency threshold.

    The serving tier appends one entry per slow query (request id, plan
    shape, stepper spec, cache verdict, latency, work counters, flight
    snapshot); the log keeps the most recent *capacity* of them.  Entries
    are sanitized to plain JSON data on the way in, so :meth:`write`
    (JSONL) and the ``repro report`` "Slow queries" section never meet a
    numpy scalar.  Truthiness means "has entries" — guard call sites
    with ``is not None``.
    """

    def __init__(self, threshold_ms: float, capacity: int = 256) -> None:
        if threshold_ms < 0:
            raise ValueError("threshold_ms must be >= 0")
        if capacity < 1:
            raise ValueError("slow-query log capacity must be >= 1")
        self.threshold_ms = threshold_ms
        self.capacity = capacity
        self.total = 0  # entries ever recorded (retained + rotated out)
        self._entries: deque[dict[str, Any]] = deque(maxlen=capacity)

    def record(self, entry: Mapping[str, Any]) -> dict[str, Any]:
        """Append one entry (stamped with a wall-clock ``ts``); returns
        the sanitized dict actually stored."""
        stored = dict(_sanitize(entry))
        stored.setdefault("ts", round(time.time(), 3))
        stored.setdefault("threshold_ms", self.threshold_ms)
        self._entries.append(stored)
        self.total += 1
        return stored

    def entries(self) -> list[dict[str, Any]]:
        """The retained entries, oldest first (copies — safe to mutate)."""
        return [dict(e) for e in self._entries]

    def clear(self) -> None:
        self._entries.clear()
        self.total = 0

    def write(self, path: "str | os.PathLike[str]") -> str:
        """Write the retained entries as JSON Lines; returns the path."""
        with open(path, "w") as fh:
            for entry in self._entries:
                fh.write(json.dumps(entry) + "\n")
        return str(path)

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[dict[str, Any]]:
        return iter(self.entries())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SlowQueryLog<{len(self)}/{self.capacity} entries, "
            f">{self.threshold_ms}ms>"
        )
