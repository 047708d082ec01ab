"""The chaos harness: fault-plan × transport matrix + breaker drill.

This is the executable form of the robustness claim: for **every**
named fault plan, over **every** inner transport, the sharded stepper
behind a ``ResilientTransport(ChaosTransport(...))`` stack returns
distances **bit-identical** to Dijkstra, with retry work bounded by the
plan's failure budget.  :func:`run_chaos_matrix` runs the matrix (the
``repro chaos`` CLI command and the CI ``chaos`` job call it);
:func:`run_breaker_drill` exercises the serving tier's degraded mode —
breaker trip, landmark-bound answers, mutation shedding, half-open
probe, recovery — against a deterministic fake clock and a scripted
flaky solver.

Everything is seeded: the same ``(seed, suite, transports)`` triple
reproduces the same injections, the same retries, and the same report.
Per-cell recorder registries are folded into one fleet-wide
:class:`~repro.obs.metrics.MetricsRegistry` (counter add, histogram
bucket-merge) so the report's telemetry is the sum of what every cell
actually did.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from ..bench.workloads import Workload, suite_workloads
from ..obs import Recorder
from ..obs.metrics import MetricsRegistry
from ..shard.stepper import ShardedDeltaStepper
from ..sssp.reference import dijkstra
from .breaker import CircuitBreaker, MutationShedError
from .chaos import ChaosTransport
from .plan import FaultPlan
from .retry import ResilientTransport, RetryPolicy

__all__ = [
    "named_fault_plans",
    "ChaosCell",
    "ChaosReport",
    "run_chaos_cell",
    "run_chaos_matrix",
    "run_breaker_drill",
]

#: inner transports every matrix cell is run over by default: the
#: serial reference and a pooled one (barrier skew, real concurrency)
DEFAULT_TRANSPORTS: tuple[str, ...] = ("inline", "threads:2")


def named_fault_plans(seed: int = 7) -> dict[str, FaultPlan]:
    """The named fault plans the chaos matrix iterates, freshly built.

    ``clean`` (control: no injection), ``failures`` (lost dispatches),
    ``stragglers`` (delayed steps), ``duplicates`` (duplicated +
    reordered deliveries), ``mixed`` (all of the above).  Plans carry
    RNG state, so callers get fresh instances each call.
    """
    return {
        "clean": FaultPlan(seed=seed),
        "failures": FaultPlan(seed=seed, fail_rate=0.3, max_failures=32),
        "stragglers": FaultPlan(seed=seed, delay_ms=2.0, delay_rate=0.5),
        "duplicates": FaultPlan(seed=seed, dup_rate=0.5, reorder_rate=0.5),
        "mixed": FaultPlan(
            seed=seed,
            fail_rate=0.2,
            delay_ms=1.0,
            delay_rate=0.25,
            dup_rate=0.3,
            reorder_rate=0.3,
            max_failures=32,
        ),
    }


@dataclass(frozen=True)
class ChaosCell:
    """One (workload, fault plan, inner transport) matrix cell's verdict."""

    workload: str
    plan: str
    transport: str
    identical: bool
    retries_bounded: bool
    faults_injected: int
    retry_attempts: int
    retry_bound: int
    restores: int
    supersteps: int

    @property
    def ok(self) -> bool:
        return self.identical and self.retries_bounded

    def as_dict(self) -> dict[str, Any]:
        d = dict(self.__dict__)
        d["ok"] = self.ok
        return d


@dataclass
class ChaosReport:
    """Everything one :func:`run_chaos_matrix` run established."""

    cells: list[ChaosCell] = field(default_factory=list)
    breaker: dict[str, Any] = field(default_factory=dict)
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)

    @property
    def ok(self) -> bool:
        """Bit-identity + bounded retries in every cell, drill passed."""
        return all(c.ok for c in self.cells) and bool(self.breaker.get("ok"))

    def as_dict(self) -> dict[str, Any]:
        return {
            "ok": self.ok,
            "cells": [c.as_dict() for c in self.cells],
            "breaker": self.breaker,
            "counters": self.metrics.snapshot()["counters"],
        }


def run_chaos_cell(
    workload: Workload,
    plan_name: str,
    plan: FaultPlan,
    transport: str,
    num_shards: int = 4,
    checkpoint_every: int = 2,
    max_attempts: int = 4,
    seed: int = 7,
    fleet_metrics: MetricsRegistry | None = None,
) -> ChaosCell:
    """Run one matrix cell: ``ResilientTransport(ChaosTransport(inner))``
    vs Dijkstra.

    The retry budget bound is structural, not tuned: the chaos plan
    injects at most ``max_failures`` step failures total, and each can
    cost at most ``max_attempts`` executions, so ``retry.attempts`` (the
    count of *re*-executions) can never exceed their product.
    """
    cell_rec = Recorder()
    chaos = ChaosTransport(plan, inner=transport)
    policy = RetryPolicy(
        max_attempts=max_attempts, base_delay_ms=0.1, max_delay_ms=2.0, seed=seed
    )
    stack = ResilientTransport(inner=chaos, policy=policy)
    result = ShardedDeltaStepper().solve(
        workload.graph,
        workload.source,
        delta=workload.delta,
        num_shards=num_shards,
        transport=stack,
        checkpoint_every=checkpoint_every,
        max_restores=max(8, plan.max_failures),
        recorder=cell_rec,
    )
    expected = dijkstra(workload.graph, workload.source).distances
    counters = cell_rec.metrics.snapshot()["counters"]
    retry_attempts = int(counters.get("retry.attempts", 0))
    retry_bound = plan.max_failures * max_attempts
    if fleet_metrics is not None:
        fleet_metrics.merge(cell_rec.metrics)
    return ChaosCell(
        workload=workload.name,
        plan=plan_name,
        transport=transport,
        identical=bool(np.array_equal(result.distances, expected)),
        retries_bounded=retry_attempts <= retry_bound,
        faults_injected=plan.injected,
        retry_attempts=retry_attempts,
        retry_bound=retry_bound,
        restores=int(result.extra.get("restores", 0)),
        supersteps=int(result.buckets_processed),
    )


def run_breaker_drill(seed: int = 7) -> dict[str, Any]:
    """Drive the serving tier through a full breaker episode.

    A scripted solver fails its first calls; a fake clock drives the
    cooldown.  Checks, in order: failures degrade to landmark answers,
    the breaker trips, an open breaker sheds mutations, the half-open
    probe's failure re-opens, and after recovery the exact path returns
    distances bit-identical to Dijkstra.  Returns per-check booleans
    plus the final breaker/stats snapshot; ``"ok"`` ands them all.
    """
    from ..service.batch import batch_delta_stepping
    from ..service.landmarks import LandmarkIndex
    from ..service.server import QueryService

    workload = suite_workloads("ci")[0]
    g = workload.graph
    landmarks = LandmarkIndex.build(g, num_landmarks=4, seed=seed)

    calls = {"n": 0}

    def flaky_solver(graph: Any, batch: Any, **kwargs: Any) -> Any:
        calls["n"] += 1
        if calls["n"] <= 3:
            raise RuntimeError("scripted solver outage")
        return batch_delta_stepping(graph, batch, **kwargs)

    clock = {"t": 0.0}
    breaker = CircuitBreaker(
        failure_threshold=2, reset_after_s=10.0, clock=lambda: clock["t"]
    )
    drill_rec = Recorder()
    service = QueryService(
        g,
        landmarks=landmarks,
        breaker=breaker,
        solver=flaky_solver,
        recorder=drill_rec,
    )
    n = g.num_vertices
    sources = [workload.source, (workload.source + 1) % n, (workload.source + 2) % n]

    checks: dict[str, bool] = {}
    r1 = service.query(sources[0])
    checks["failure_degrades"] = bool(r1.degraded and not r1.exact)
    r2 = service.query(sources[1])
    checks["breaker_trips"] = breaker.state == "open" and breaker.trips >= 1
    checks["second_failure_degrades"] = bool(r2.degraded)
    try:
        service.mutate(reweights=[(0, int(g.indices[0]), 2.0)], strict=False)
        checks["mutation_shed"] = False
    except MutationShedError:
        checks["mutation_shed"] = True
    clock["t"] = 11.0  # past the cooldown: next query is the probe
    r3 = service.query(sources[2])
    checks["failed_probe_reopens"] = bool(r3.degraded) and breaker.state == "open"
    clock["t"] = 22.0  # solver has recovered (scripted failures spent)
    r4 = service.query(sources[0])
    expected = dijkstra(g, sources[0]).distances
    checks["recovery_exact"] = bool(
        r4.exact
        and not r4.degraded
        and breaker.state == "closed"
        and np.array_equal(r4.distances, expected)
    )
    stats = service.stats()
    return {
        "ok": all(checks.values()),
        "checks": checks,
        "workload": workload.name,
        "degraded_answers": stats.degraded_answers,
        "mutations_shed": stats.mutations_shed,
        "breaker": breaker.as_dict(),
        "counters": drill_rec.metrics.snapshot()["counters"],
    }


def run_chaos_matrix(
    smoke: bool = False,
    seed: int = 7,
    transports: Sequence[str] = DEFAULT_TRANSPORTS,
    num_shards: int = 4,
    checkpoint_every: int = 2,
    max_attempts: int = 4,
    suite: str = "ci",
) -> ChaosReport:
    """Run the full fault-plan × transport matrix plus the breaker drill.

    ``smoke`` restricts the matrix to the two smallest suite workloads
    (the CI gate); the full run covers the whole suite.  Per-cell
    recorder registries are merged into ``report.metrics``, so e.g.
    ``retry.attempts`` / ``faults.injected`` / ``checkpoint.restores``
    in the report are fleet totals.
    """
    workloads = suite_workloads(suite)
    if smoke:
        workloads = workloads[:2]
    report = ChaosReport()
    for workload in workloads:
        for transport in transports:
            for plan_name, plan in named_fault_plans(seed).items():
                report.cells.append(
                    run_chaos_cell(
                        workload,
                        plan_name,
                        plan,
                        transport,
                        num_shards=num_shards,
                        checkpoint_every=checkpoint_every,
                        max_attempts=max_attempts,
                        seed=seed,
                        fleet_metrics=report.metrics,
                    )
                )
    report.breaker = run_breaker_drill(seed)
    return report
