"""The resilient transport: retry/backoff over any inner transport.

:class:`ResilientTransport` gives the sharded stepper its first
recovery layer: when the inner transport reports per-step failures
(a :class:`repro.parallel.pool.BatchError` with indices attached — the
contract every transport carries), only the failed shard steps are
re-run, after a capped exponential backoff with seeded jitter.  The
completed siblings' results are kept — min-plus relaxation makes
re-running a *failed* step sound (injected failures are fail-stop
before the step body) and re-running a *completed* one harmless, but
not re-running completed work is what keeps retries cheap.

One ``run()`` call is one superstep, so :class:`RetryPolicy.deadline_ms`
is the per-superstep recovery budget: when the next backoff would cross
it, the transport stops retrying and declares the superstep lost.
Exhaustion (attempts or deadline) raises :class:`RetryExhausted` — a
:class:`~repro.shard.exchange.TransportFailure` — which the stepper's
checkpoint layer treats as "restore and re-execute" and everything else
treats as fatal.

Telemetry (via :meth:`~repro.shard.exchange.Transport.bind_recorder`):
``retry.attempts`` counts re-executed shard steps, ``retry.exhausted``
counts supersteps declared lost, ``retry.backoff_ms`` accumulates time
spent backing off.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from ..parallel.pool import BatchError
from ..shard.exchange import (
    FrontierExchange,
    Transport,
    TransportFailure,
    make_transport,
)

__all__ = ["RetryPolicy", "RetryExhausted", "ResilientTransport"]


@dataclass(frozen=True)
class RetryPolicy:
    """How a :class:`ResilientTransport` retries failed shard steps.

    ``max_attempts`` bounds executions per step per superstep (first try
    included).  Backoff before retry *k* (1-based) is
    ``min(base_delay_ms * 2**(k-1), max_delay_ms)``, with up to a
    *jitter* fraction subtracted by the seeded RNG — jitter is
    subtractive so ``max_delay_ms`` is also the worst case.
    ``deadline_ms`` is the per-superstep budget (``None`` = unbounded):
    a retry whose backoff would cross it is not attempted.
    """

    max_attempts: int = 4
    base_delay_ms: float = 1.0
    max_delay_ms: float = 50.0
    jitter: float = 0.5
    seed: int = 0
    deadline_ms: float | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.base_delay_ms < 0 or self.max_delay_ms < 0:
            raise ValueError("backoff delays must be >= 0")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise ValueError(f"deadline_ms must be positive, got {self.deadline_ms}")

    def backoff_ms(self, attempt: int, rng: random.Random) -> float:
        """Backoff before retry *attempt* (1-based; serial, seeded draw)."""
        base = min(self.base_delay_ms * (2.0 ** (attempt - 1)), self.max_delay_ms)
        if self.jitter <= 0.0:
            return base
        return base * (1.0 - self.jitter * rng.random())


class RetryExhausted(TransportFailure):
    """A superstep's failed shard steps survived every allowed retry.

    ``failures`` holds ``(shard index, last exception)`` pairs,
    ``attempts`` the executions the worst step got, and
    ``deadline_hit`` whether the superstep deadline (rather than the
    attempt cap) ended the recovery.
    """

    def __init__(
        self,
        failures: Sequence[tuple[int, BaseException]],
        attempts: int,
        deadline_hit: bool = False,
    ) -> None:
        self.failures = list(failures)
        self.attempts = attempts
        self.deadline_hit = deadline_hit
        ids = ", ".join(str(i) for i, _ in self.failures)
        last = self.failures[0][1] if self.failures else None
        why = "superstep deadline reached" if deadline_hit else "attempt cap reached"
        super().__init__(
            f"shard step(s) [{ids}] still failing after {attempts} attempt(s) "
            f"({why}); last error: {type(last).__name__}: {last}"
        )


class ResilientTransport(Transport):
    """Retry failed shard steps on any inner transport (module docstring).

    *inner* is any :func:`~repro.shard.exchange.make_transport` spec or
    instance — a :class:`~repro.faults.ChaosTransport` included, e.g.
    ``ResilientTransport(ChaosTransport(plan, inner="threads:4"),
    RetryPolicy(max_attempts=4))``.
    """

    def __init__(
        self,
        inner: Transport | str | None = None,
        policy: RetryPolicy | None = None,
    ) -> None:
        self.inner = make_transport(inner)
        self.policy = policy if policy is not None else RetryPolicy()
        self.name = f"resilient[{self.inner.name}]"
        self._rng = random.Random(self.policy.seed)
        self._recorder: Any = None

    def bind_recorder(self, recorder: Any) -> None:
        self._recorder = recorder if recorder else None
        self.inner.bind_recorder(recorder)

    def before_flush(self, exchange: FrontierExchange) -> None:
        self.inner.before_flush(exchange)

    def run(self, fns: Sequence[Callable[[], Any]]) -> list[Any]:
        policy = self.policy
        rec = self._recorder
        t0 = time.monotonic()
        results: list[Any] = [None] * len(fns)
        pending = list(range(len(fns)))
        attempt = 0
        deadline_hit = False
        while True:
            attempt += 1
            failures: list[tuple[int, BaseException]] = []
            try:
                outs = self.inner.run([fns[i] for i in pending])
            except BatchError as exc:
                failed_local = dict(exc.failures)
                for j, value in enumerate(exc.results):
                    if j in failed_local:
                        failures.append((pending[j], failed_local[j]))
                    else:
                        results[pending[j]] = value
            else:
                for j, value in enumerate(outs):
                    results[pending[j]] = value
            if not failures:
                return results
            if attempt >= policy.max_attempts:
                break
            delay_ms = policy.backoff_ms(attempt, self._rng)
            if policy.deadline_ms is not None:
                elapsed_ms = (time.monotonic() - t0) * 1e3
                if elapsed_ms + delay_ms > policy.deadline_ms:
                    deadline_hit = True
                    break
            if delay_ms > 0.0:
                time.sleep(delay_ms / 1e3)
            if rec is not None:
                rec.inc("retry.attempts", len(failures))
                rec.observe("retry.backoff_ms", delay_ms)
            pending = [i for i, _ in failures]
        if rec is not None:
            rec.inc("retry.exhausted")
        raise RetryExhausted(failures, attempt, deadline_hit=deadline_hit)

