"""The breaker drill: one scripted degraded-serving episode.

:func:`run_breaker_drill` exercises the serving tier's degraded mode —
breaker trip, landmark-bound answers, mutation shedding, half-open
probe, recovery — against a deterministic fake clock and a scripted
flaky solver.  The ``repro chaos`` command runs it, writes its
recorder's OpenMetrics exposition on request, and exits 1 on any
failed check.  Everything is deterministic: the landmark selection
(farthest-point), the scripted failures and the clock are fixed, so
every run gives the same answers and the same report.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..bench.workloads import suite_workloads
from ..obs import Recorder
from ..sssp.reference import dijkstra
from .breaker import CircuitBreaker, MutationShedError

__all__ = ["run_breaker_drill"]


def run_breaker_drill() -> dict[str, Any]:
    """Drive the serving tier through a full breaker episode.

    A scripted solver fails its first calls; a fake clock drives the
    cooldown.  Checks, in order: failures degrade to landmark answers,
    the breaker trips, an open breaker sheds mutations, the half-open
    probe's failure re-opens, and after recovery the exact path returns
    distances bit-identical to Dijkstra.  Returns per-check booleans
    plus the final breaker/stats snapshot; ``"ok"`` ands them all, and
    ``"metrics"`` is the drill recorder's
    :class:`~repro.obs.metrics.MetricsRegistry` (the ``service.*``
    counters and gauges the episode wrote).
    """
    from ..service.batch import batch_delta_stepping
    from ..service.landmarks import LandmarkIndex
    from ..service.server import QueryService

    workload = suite_workloads("ci")[0]
    g = workload.graph
    landmarks = LandmarkIndex.build(g, num_landmarks=4)

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
        "metrics": drill_rec.metrics,
    }
