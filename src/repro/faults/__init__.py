"""Fault tolerance for the sharded execution path and the serving tier.

The paper's sharded delta-stepping is a bulk-synchronous loop over an
exchange whose transports, so far, could not fail.  This package makes
failure a first-class, *deterministic* input and layers three
recoveries on top — each verifiable bit-identically against Dijkstra:

- :mod:`~repro.faults.plan` / :mod:`~repro.faults.chaos` — a seeded
  :class:`FaultPlan` drives :class:`ChaosTransport`: injected shard-step
  failures (fail-stop lost dispatches), straggler delays, duplicated
  and reordered exchange deliveries.  Built in code around an inner
  transport spec: ``ChaosTransport(FaultPlan(seed=7, fail_rate=0.2),
  inner="threads:4")``.
- :mod:`~repro.faults.retry` — :class:`ResilientTransport` re-runs only
  the failed shard steps under a :class:`RetryPolicy` (capped
  exponential backoff, seeded jitter, per-superstep deadline); budget
  exhaustion raises :class:`RetryExhausted`, which the stepper's
  superstep checkpoints (``checkpoint_every=K``) recover by restore +
  re-execution.
- :mod:`~repro.faults.breaker` — the serving tier's
  :class:`CircuitBreaker`: consecutive solver failures flip
  :class:`repro.service.QueryService` into degraded mode (landmark-bound
  answers, mutation shedding) until a half-open probe succeeds.

Both wrappers are passed to the sharded stepper as objects
(``transport=ResilientTransport(ChaosTransport(plan), policy)``); the
string spellings stay ``inline`` and ``threads[:N]``.

The chaos harness (:mod:`repro.faults.harness`, the ``repro chaos``
command) proves the composition: every fault plan × transport cell must
return distances bit-identical to Dijkstra with bounded retry work.  It
is imported on demand — not re-exported here — because it reaches into
the bench/service layers, which import this package.
"""

from .breaker import (
    BREAKER_STATE_CODES,
    CircuitBreaker,
    CircuitOpenError,
    MutationShedError,
)
from .chaos import ChaosTransport
from .plan import FaultInjected, FaultPlan
from .retry import ResilientTransport, RetryExhausted, RetryPolicy

__all__ = [
    "BREAKER_STATE_CODES",
    "CircuitBreaker",
    "CircuitOpenError",
    "MutationShedError",
    "ChaosTransport",
    "FaultInjected",
    "FaultPlan",
    "ResilientTransport",
    "RetryExhausted",
    "RetryPolicy",
]
