"""The SERVE experiment: batched query throughput vs a naive query loop.

For each suite graph, a fixed workload of one-to-many queries (distinct
sources, deterministic seed) is answered two ways:

- **loop** — the pre-service architecture: one
  :func:`repro.sssp.fused.fused_delta_stepping` run per query;
- **service** — a cold :class:`repro.service.QueryService` that coalesces
  the whole workload into batches
  (:func:`repro.service.batch.batch_delta_stepping`), each of them one
  single-source solve per source on the same compiled loop the query
  loop runs.  The ratio therefore measures what the service's planning,
  caching and bookkeeping cost or save against the bare loop.

Both sides answer exactly the same queries; every served answer is
verified bit-identical to per-source Dijkstra before timing (a solve
replays the same ``d[u] + w`` additions along the same shortest paths,
so on the unit-weight suite equality is exact, not approximate).
The headline (:func:`service_throughput_headline`) is the suite-level
throughput ratio against :data:`SPEEDUP_TARGET`.
"""

from __future__ import annotations

import numpy as np

from ..service import Query, QueryService
from ..sssp.fused import fused_delta_stepping
from ..sssp.reference import dijkstra
from ..sssp.validate import ValidationError
from .reporting import format_table, geometric_mean
from .timing import time_callable
from .workloads import Workload, suite_workloads

__all__ = [
    "service_throughput_series",
    "service_throughput_headline",
    "render_service_throughput",
    "SPEEDUP_TARGET",
]

#: the headline criterion: the service must serve at least this multiple
#: of the per-query loop's throughput over the whole suite
SPEEDUP_TARGET = 2.0


def _workload_sources(wl: Workload, num_queries: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    n = wl.graph.num_vertices
    return rng.choice(n, size=min(num_queries, n), replace=False)


def service_throughput_series(
    workloads: list[Workload] | None = None,
    num_queries: int = 64,
    repeats: int = 3,
    seed: int = 7,
    verify: bool = True,
    stepper: str | None = None,
    autotune: bool = False,
) -> list[dict]:
    """Per-graph loop-vs-service timings for the query workload.

    ``stepper`` pins the service's exact solves to one stepping-registry
    algorithm; ``autotune`` lets the per-graph tuner pick instead (the
    probe cost is paid inside the timed service run, as it would be in
    production).  *verify* raises :class:`ValidationError` on a mismatch.
    """
    workloads = workloads if workloads is not None else suite_workloads()
    rows = []
    for wl in workloads:
        sources = _workload_sources(wl, num_queries, seed)

        def make_service():
            return QueryService(
                wl.graph, delta=wl.delta, stepper=stepper, autotune=autotune
            )

        if verify:
            svc = make_service()
            for s in sources:
                svc.submit(Query(source=int(s)))
            responses = svc.drain()
            for s, resp in zip(sources, responses):
                oracle = dijkstra(wl.graph, int(s)).distances
                if not np.array_equal(resp.distances, oracle):
                    raise ValidationError(f"{wl.name}: batch source {s} differs from Dijkstra")

        def run_loop():
            for s in sources:
                fused_delta_stepping(wl.graph, int(s), wl.delta)

        def run_service():
            svc = make_service()  # cold cache each run
            for s in sources:
                svc.submit(Query(source=int(s)))
            svc.drain()

        loop = time_callable(run_loop, repeats=repeats)
        service = time_callable(run_service, repeats=repeats)
        q = len(sources)
        rows.append(
            {
                "graph": wl.name,
                "nodes": wl.num_vertices,
                "queries": q,
                "loop_ms": loop.best_ms,
                "service_ms": service.best_ms,
                "loop_qps": q / loop.best,
                "service_qps": q / service.best,
                "speedup": loop.best / service.best,
                "verified": "ok" if verify else "-",
            }
        )
    return rows


def service_throughput_headline(rows: list[dict]) -> dict:
    """The machine-readable verdict stored in ``BENCH_SERVE.json``.

    ``passed`` requires every row verified bit-identical to Dijkstra and
    the suite-level throughput ratio (total loop time over total service
    time) ≥ :data:`SPEEDUP_TARGET`.
    """
    all_verified = all(r["verified"] == "ok" for r in rows)
    speedup = sum(r["loop_ms"] for r in rows) / sum(r["service_ms"] for r in rows)
    return {
        "criterion": (
            f"every batched answer bit-identical to Dijkstra; suite throughput "
            f">= {SPEEDUP_TARGET}x the per-query fused loop"
        ),
        "all_verified": all_verified,
        "suite_speedup": speedup,
        "gmean_speedup": geometric_mean(r["speedup"] for r in rows),
        "speedup_target": SPEEDUP_TARGET,
        "passed": all_verified and speedup >= SPEEDUP_TARGET,
    }


def render_service_throughput(rows: list[dict]) -> str:
    """The SERVE panel: per-graph table + suite-level throughput headline."""
    table = format_table(
        rows,
        columns=[
            "graph", "nodes", "queries",
            "loop_ms", "service_ms", "loop_qps", "service_qps", "speedup",
        ],
    )
    head = service_throughput_headline(rows)
    total_q = sum(r["queries"] for r in rows)
    total_loop = sum(r["loop_ms"] for r in rows) / 1e3
    total_service = sum(r["service_ms"] for r in rows) / 1e3
    verdict = "PASS" if head["passed"] else "MISS"
    return (
        "SERVE — Batched query service vs per-query fused loop "
        f"({total_q} queries, verified bit-identical to Dijkstra)\n\n"
        f"{table}\n\n"
        f"Workload throughput: {total_q / total_loop:.0f} qps loop -> "
        f"{total_q / total_service:.0f} qps service "
        f"({head['suite_speedup']:.2f}x; per-graph geometric mean "
        f"{head['gmean_speedup']:.2f}x; target >= {SPEEDUP_TARGET}x) [{verdict}]\n"
    )
