#!/usr/bin/env python
"""Dynamic updates: mutate a served graph and repair distances in place.

The dynamic layer (`repro.dynamic`) turns the frozen-graph service into a
living one:

- `apply_edge_updates` applies insert/delete/reweight batches, keeps the
  CSR canonical, and bumps `graph.epoch` — the version every cache of
  derived state keys on, so stale answers miss automatically;
- `repair_sssp` patches a cached distance vector after a batch, seeding
  delta-stepping buckets from only the affected region, bit-identical to
  a full recompute;
- `QueryService.mutate` drives both: hot cache entries are repaired (not
  dropped), the landmark index goes stale and rebuilds lazily.

Run:  python examples/dynamic_updates.py
"""

import time

import numpy as np

from repro import datasets
from repro.dynamic import apply_edge_updates, repair_sssp
from repro.service import LandmarkIndex, QueryService
from repro.sssp import dijkstra
from repro.sssp.delta import choose_delta
from repro.sssp.fused import fused_delta_stepping


def main() -> None:
    graph = datasets.load("ci-road", weights="uniform")
    source = 0
    delta = choose_delta(graph)
    print(f"graph: {graph} (epoch {graph.epoch})")

    # --- the mutation API -------------------------------------------------
    d0 = fused_delta_stepping(graph, source, delta).distances
    u, v = 0, int(graph.indices[graph.indptr[0]])
    applied = apply_edge_updates(
        graph,
        reweights=[(u, v, float(graph.edge_weight(u, v)) * 4)],  # traffic jam
    )
    print(f"\nreweighted {u} <-> {v}: {applied} -> epoch {graph.epoch}")

    # --- incremental repair vs recompute ----------------------------------
    t0 = time.perf_counter()
    repaired = repair_sssp(graph, source, d0, applied, delta=delta)
    repair_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    recomputed = fused_delta_stepping(graph, source, delta).distances
    recompute_s = time.perf_counter() - t0
    assert np.array_equal(repaired.distances, recomputed)
    print(f"repair touched {repaired.affected} affected + {repaired.seeds} seeded "
          f"vertices of {graph.num_vertices} in {repaired.phases} phases")
    print(f"repair {repair_s * 1e3:.2f} ms vs recompute {recompute_s * 1e3:.2f} ms "
          f"({recompute_s / max(repair_s, 1e-9):.1f}x) — answers bit-identical")

    # --- the service keeps serving through mutations ----------------------
    service = QueryService(
        graph, weight_mode="uniform", landmarks=LandmarkIndex.build(graph, 3)
    )
    target = graph.num_vertices - 1
    first = service.query(source, target)
    print(f"\nservice: d({source} -> {target}) = {first.distance:g} "
          f"[{'cache' if first.from_cache else 'batch solve'}]")

    report = service.mutate(deletes=[(u, v)])  # road closure
    print(f"mutate: {report}")
    after = service.query(source, target)
    oracle = float(dijkstra(graph, source).distances[target])
    assert after.from_cache, "repaired entry should still be hot"
    assert after.distance == oracle
    print(f"after closure: d({source} -> {target}) = {after.distance:g} "
          f"[cache hit, repaired in place, matches Dijkstra]")

    assert service.landmarks.stale  # the epoch moved; not yet rebuilt: lazy policy
    service.landmarks.ensure_fresh()
    est = service.landmarks.estimate(source, target)
    print(f"landmarks rebuilt lazily ({service.landmarks.rebuilds} rebuild): "
          f"bounds [{est.lower:g}, {est.upper:g}]")

    stats = service.stats()
    print(f"\nservice stats: {stats.queries_served} served, "
          f"{stats.mutations_applied} mutation, "
          f"{stats.entries_repaired} cache entry repaired, "
          f"cache invalidations {stats.cache.invalidations} (epoch keying needs none)")


if __name__ == "__main__":
    main()
