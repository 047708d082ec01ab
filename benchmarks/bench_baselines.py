"""DIJK — §VII comparison: delta-stepping at Δ=1 versus classical baselines.

The paper notes that Δ=1 on unit weights makes delta-stepping analogous
to Dijkstra (each bucket is one distance level, processed like the
priority queue's minimum).  These benchmarks measure every implementation
plus Dijkstra and Bellman–Ford on the same workloads, and assert that all
produce identical distances.
"""

from __future__ import annotations

import pytest

from repro.sssp import bellman_ford, dijkstra
from repro.stepping import get_stepper


@pytest.mark.parametrize("method", ["capi", "delta", "graphblas", "meyer-sanders", "parallel"])
def bench_delta_stepping_method(benchmark, workload, method):
    """All five delta-stepping implementations on the suite."""
    benchmark.group = f"baselines:{workload.name}"
    stepper = get_stepper(method)
    result = benchmark.pedantic(
        lambda: stepper.solve(workload.graph, workload.source, delta=workload.delta),
        rounds=1 if method in ("graphblas", "capi", "meyer-sanders") else 3,
        iterations=1,
    )
    oracle = dijkstra(workload.graph, workload.source)
    assert result.same_distances(oracle), f"{method} diverges from Dijkstra"


def bench_dijkstra(benchmark, workload):
    """The binary-heap oracle itself."""
    benchmark.group = f"baselines:{workload.name}"
    benchmark.pedantic(
        lambda: dijkstra(workload.graph, workload.source),
        rounds=3,
        iterations=1,
    )


def bench_bellman_ford(benchmark, workload):
    """Edge-centric label correcting (the Δ→∞ endpoint)."""
    benchmark.group = f"baselines:{workload.name}"
    result = benchmark.pedantic(
        lambda: bellman_ford(workload.graph, workload.source),
        rounds=3,
        iterations=1,
    )
    oracle = dijkstra(workload.graph, workload.source)
    assert result.same_distances(oracle)
