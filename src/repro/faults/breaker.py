"""A circuit breaker for the serving tier's exact-solve path.

Classic three-state breaker (closed → open → half-open), tuned for
:class:`repro.service.server.QueryService`: consecutive solver failures
trip it, a wall-clock cooldown admits one half-open probe, and while
open the service answers from landmark upper bounds (degraded mode)
instead of burning latency on a failing solver — and sheds mutations,
because a repair that fails mid-flight is strictly worse than a stale
answer the epoch snapshot can still serve.

The clock is injectable (``clock=time.monotonic`` by default) so tests
and the breaker drill drive state transitions without sleeping.  All
transitions are lock-guarded; the service calls :meth:`allow` /
:meth:`record_success` / :meth:`record_failure` around each batch solve.
"""

from __future__ import annotations

import threading
import time
from typing import Callable

__all__ = [
    "BREAKER_STATE_CODES",
    "CircuitBreaker",
    "CircuitOpenError",
    "MutationShedError",
]

#: breaker state → the numeric code the ``service.breaker_state`` gauge
#: exposes (OpenMetrics gauges are floats; keep the mapping stable)
BREAKER_STATE_CODES: dict[str, int] = {"closed": 0, "half-open": 1, "open": 2}


class CircuitOpenError(RuntimeError):
    """An exact solve was refused: breaker open and no fallback exists."""


class MutationShedError(RuntimeError):
    """A mutation batch was shed because the breaker is open."""


class CircuitBreaker:
    """Consecutive-failure circuit breaker with a timed half-open probe.

    Parameters
    ----------
    failure_threshold:
        Consecutive failures (successes reset the count) that trip the
        breaker open.
    reset_after_s:
        Cooldown after tripping; once elapsed, the breaker turns
        half-open and :meth:`allow` admits exactly one probe.  A failed
        probe re-opens (restarting the cooldown), a success closes.
    clock:
        Monotonic time source; injectable for deterministic tests.
    """

    def __init__(
        self,
        failure_threshold: int = 3,
        reset_after_s: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if reset_after_s < 0:
            raise ValueError(f"reset_after_s must be >= 0, got {reset_after_s}")
        self.failure_threshold = int(failure_threshold)
        self.reset_after_s = float(reset_after_s)
        self._clock = clock
        self._lock = threading.Lock()
        self._state = "closed"
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probing = False
        #: total transitions into open — closed→open trips plus failed
        #: half-open probes (monotone; surfaced in stats)
        self.trips = 0

    def _state_locked(self) -> str:
        if (
            self._state == "open"
            and self._clock() - self._opened_at >= self.reset_after_s
        ):
            self._state = "half-open"
            self._probing = False
        return self._state

    @property
    def state(self) -> str:
        """``"closed"``, ``"open"``, or ``"half-open"`` (cooldown applied)."""
        with self._lock:
            return self._state_locked()

    def allow(self) -> bool:
        """May an exact solve be attempted now?

        Mutating: when half-open, the first caller claims the single
        probe slot (subsequent callers are refused until the probe
        reports via :meth:`record_success` / :meth:`record_failure`).
        """
        with self._lock:
            state = self._state_locked()
            if state == "closed":
                return True
            if state == "half-open" and not self._probing:
                self._probing = True
                return True
            return False

    def allow_mutation(self) -> bool:
        """Mutations are shed only while fully open (a half-open breaker
        is probing its way back; repairs may proceed)."""
        return self.state != "open"

    def record_success(self) -> None:
        with self._lock:
            self._state = "closed"
            self._consecutive_failures = 0
            self._probing = False

    def record_failure(self) -> None:
        with self._lock:
            state = self._state_locked()
            self._consecutive_failures += 1
            trip = (
                state == "half-open"
                or self._consecutive_failures >= self.failure_threshold
            )
            if trip:
                if self._state != "open":
                    self.trips += 1
                self._state = "open"
                self._opened_at = self._clock()
                self._probing = False

    def as_dict(self) -> dict[str, int | str]:
        """State snapshot for ``QueryService.stats()`` and reports."""
        with self._lock:
            state = self._state_locked()
            return {
                "state": state,
                "state_code": BREAKER_STATE_CODES[state],
                "consecutive_failures": self._consecutive_failures,
                "trips": self.trips,
            }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CircuitBreaker<{self.state}, trips={self.trips}>"
