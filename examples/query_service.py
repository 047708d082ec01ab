#!/usr/bin/env python
"""Query service: serve distance queries with batching, caching, landmarks.

The service layer turns the single-source reproduction into a throughput
engine:

- K queued queries from distinct sources become ONE batch: K
  single-source delta-stepping solves on the compiled bucket loop;
- repeat sources are answered from the LRU distance cache;
- an ALT-style landmark index supplies certified [lower, upper] bounds,
  which the service answers with while a circuit breaker holds its
  failing solver off.

Run:  python examples/query_service.py
"""

import numpy as np

from repro import datasets
from repro.service import LandmarkIndex, Query, QueryService, batch_delta_stepping
from repro.sssp import dijkstra


def main() -> None:
    graph = datasets.load("ci-ws")
    rng = np.random.default_rng(11)
    print(f"graph: {graph}")

    # --- a batch: K sources, one single-source solve each ----------------
    sources = rng.choice(graph.num_vertices, size=16, replace=False)
    batch = batch_delta_stepping(graph, sources)
    oracle = dijkstra(graph, int(sources[0])).distances
    assert np.array_equal(batch.distances[0], oracle)
    print(f"\nbatch: {batch}")
    print(f"  {batch.num_sources} sources solved in {batch.phases} waves in all "
          f"({batch.relaxations} relaxation requests)")
    print("  row 0 matches Dijkstra exactly")

    # --- the service: queue, coalesce, cache -----------------------------
    service = QueryService(graph)
    for s in sources:
        service.submit(Query(source=int(s), target=int((s + 7) % graph.num_vertices)))
    responses = service.drain()
    print(f"\nservice: {len(responses)} point queries answered in one drain")
    print(f"  first answer: d({responses[0].query.source} -> "
          f"{responses[0].query.target}) = {responses[0].distance:g}")

    # repeats hit the cache
    again = service.query(int(sources[0]), int((sources[0] + 7) % graph.num_vertices))
    print(f"  repeat query from cache: {again.from_cache} "
          f"({again.latency_ms:.3f} ms)")

    # --- landmark bounds (the breaker's degraded answers) ----------------
    index = LandmarkIndex.build(graph, num_landmarks=4)
    s, t = int(sources[1]), int(sources[2])
    est = index.estimate(s, t)
    true = float(dijkstra(graph, s).distances[t])
    print(f"\nlandmarks: d({s} -> {t}) in [{est.lower:g}, {est.upper:g}], "
          f"true {true:g}")
    assert est.lower <= true <= est.upper

    stats = service.stats()
    print(f"\nservice stats: {stats.queries_served} served, "
          f"{stats.batches_solved} batch solves for {stats.sources_solved} sources, "
          f"cache hit rate {stats.cache.hit_rate:.0%}")


if __name__ == "__main__":
    main()
