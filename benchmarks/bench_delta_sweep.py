"""ABL-DELTA — Δ-sweep ablation on weighted graphs.

The paper fixes Δ=1 on unit weights; this sweep exposes the classic
Meyer–Sanders trade-off on real-valued weights: small Δ ⇒ many buckets,
little work per phase (Dijkstra-like); large Δ ⇒ few buckets, re-relaxation
churn (Bellman–Ford-like).  Phases/relaxations land in ``extra_info`` so
the trade-off curve can be read off the benchmark JSON.
"""

from __future__ import annotations

import pytest

from repro.bench.workloads import workload_for
from repro.sssp import dijkstra
from repro.sssp.fused import fused_delta_stepping

DELTAS = [0.05, 0.1, 0.25, 0.5, 1.0, 4.0]
GRAPHS = ["ci-ba", "ci-road"]


@pytest.fixture(scope="module", params=GRAPHS)
def weighted_workload(request):
    """Suite graphs reweighted with hash-uniform weights in [0.05, 1)."""
    return workload_for(request.param, weights="uniform")


@pytest.mark.parametrize("delta", DELTAS)
def bench_delta_sweep(benchmark, weighted_workload, delta):
    wl = weighted_workload
    benchmark.group = f"delta-sweep:{wl.name}"
    result = benchmark.pedantic(
        lambda: fused_delta_stepping(wl.graph, wl.source, delta),
        rounds=3,
        iterations=1,
    )
    oracle = dijkstra(wl.graph, wl.source)
    assert result.same_distances(oracle), f"delta={delta} diverges"
    benchmark.extra_info["delta"] = delta
    benchmark.extra_info["buckets"] = result.buckets_processed
    benchmark.extra_info["phases"] = result.phases
    benchmark.extra_info["relaxations"] = result.relaxations
