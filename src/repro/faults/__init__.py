"""Degraded serving: the serving tier's circuit breaker and its drill.

- :mod:`~repro.faults.breaker` — :class:`CircuitBreaker`: consecutive
  solver failures flip :class:`repro.service.QueryService` into degraded
  mode (landmark-bound answers, mutation shedding) until a half-open
  probe succeeds.
- :mod:`~repro.faults.harness` — :func:`~repro.faults.harness.run_breaker_drill`
  (the ``repro chaos`` command) drives one full breaker episode against
  a scripted flaky solver and a fake clock.  It is imported on demand —
  not re-exported here — because it reaches into the bench/service
  layers, which import this package.

Shard steps run in one address space (``inline`` or ``threads[:N]``),
so a failed step has no lost dispatch to recover: it fails its
superstep through :class:`repro.parallel.pool.BatchError`.
"""

from .breaker import (
    BREAKER_STATE_CODES,
    CircuitBreaker,
    CircuitOpenError,
    MutationShedError,
)

__all__ = [
    "BREAKER_STATE_CODES",
    "CircuitBreaker",
    "CircuitOpenError",
    "MutationShedError",
]
