"""The chaos transport: seeded fault injection over any inner transport.

:class:`ChaosTransport` wraps a real transport and injects the failure
modes a wire transport will eventually face, per the plan's seeded
schedule (:mod:`repro.faults.plan`):

- **step failures** — a wrapped fn raises :class:`FaultInjected`
  *instead of* running the step body.  This is deliberately fail-stop
  *before* any write: it models a lost dispatch (the task never reached
  the worker), so a plain re-run by the retry layer is sound.  Mid-step
  crashes that leave partial writes are the checkpoint layer's
  department (:class:`repro.shard.stepper.ShardedDeltaStepper` restores
  and re-executes).
- **straggler delays** — a seeded sleep before the step body, so pooled
  runs exercise barrier skew and deadline policies.
- **duplicated / reordered deliveries** — in :meth:`before_flush`, a
  box's pending entries are re-posted into another outbox and the
  delivery order is shuffled.  Both are harmless by construction
  (:meth:`repro.shard.exchange.FrontierExchange.flush` min-combines
  across senders, and IEEE min is associative and commutative) — which
  is exactly the property the chaos matrix proves bit-identically.

All draws happen serially in the coordinator thread before dispatch, so
a chaos run is reproducible for a fixed ``(plan seed, schedule)``
regardless of how the inner transport interleaves threads.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Sequence

from ..shard.exchange import FrontierExchange, Transport, make_transport
from .plan import FaultInjected, FaultPlan

__all__ = ["ChaosTransport"]


def _chaotic(
    fn: Callable[[], Any], shard: int, fail: bool, delay_ms: float
) -> Callable[[], Any]:
    def run() -> Any:
        if delay_ms > 0.0:
            time.sleep(delay_ms / 1e3)
        if fail:
            raise FaultInjected(
                f"injected fault: shard-step {shard} dispatch lost"
            )
        return fn()

    return run


class ChaosTransport(Transport):
    """Wrap *inner* with the fault schedule of *plan* (module docstring).

    *inner* is any :func:`~repro.shard.exchange.make_transport` spec or
    instance, e.g. ``ChaosTransport(FaultPlan(seed=7, fail_rate=0.2),
    inner="threads:4")``; the plan's constructor validates every knob.
    A bound recorder (via :meth:`bind_recorder`) counts every injection
    under ``faults.injected`` plus per-kind breakdowns.
    """

    def __init__(
        self,
        plan: FaultPlan | None = None,
        inner: Transport | str | None = None,
    ) -> None:
        self.plan = plan if plan is not None else FaultPlan()
        self.inner = make_transport(inner)
        self.name = f"chaos[{self.inner.name}]"
        self._recorder: Any = None

    def bind_recorder(self, recorder: Any) -> None:
        self._recorder = recorder if recorder else None
        self.inner.bind_recorder(recorder)

    def run(self, fns: Sequence[Callable[[], Any]]) -> list[Any]:
        plan = self.plan
        wrapped: list[Callable[[], Any]] = []
        failures = 0
        delays = 0
        for i, fn in enumerate(fns):
            fail, delay_ms = plan.draw_step(i)
            if fail or delay_ms > 0.0:
                failures += 1 if fail else 0
                delays += 1 if delay_ms > 0.0 else 0
                wrapped.append(_chaotic(fn, i, fail, delay_ms))
            else:
                wrapped.append(fn)
        rec = self._recorder
        if rec is not None and (failures or delays):
            rec.inc("faults.injected", failures + delays)
            if failures:
                rec.inc("faults.step_failures", failures)
            if delays:
                rec.inc("faults.straggler_delays", delays)
        return self.inner.run(wrapped)

    def before_flush(self, exchange: FrontierExchange) -> None:
        plan = self.plan
        boxes = exchange.outboxes
        duplicated = 0
        for src, dst in plan.draw_duplications(len(boxes)):
            keys, vals = boxes[src].peek()
            if len(keys) == 0:
                continue
            boxes[dst].post(keys, vals)
            duplicated += 1
        perm = plan.draw_reorder(len(boxes))
        if perm is not None:
            # permuting the box *objects* reorders this flush's delivery
            # and re-routes future posts through different buffers — the
            # mapping stays bijective, so the one-writer-per-box rule
            # holds and min-combine makes the order irrelevant
            exchange.outboxes[:] = [boxes[i] for i in perm]
        rec = self._recorder
        if rec is not None and (duplicated or perm is not None):
            rec.inc("faults.injected", duplicated + (1 if perm is not None else 0))
            if duplicated:
                rec.inc("faults.dup_deliveries", duplicated)
            if perm is not None:
                rec.inc("faults.reorders")
        self.inner.before_flush(exchange)

