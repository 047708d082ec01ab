#!/usr/bin/env python
"""Quickstart: load a graph, run delta-stepping, inspect the result.

Covers the 90%-use-case surface in ~40 lines:

- pick a dataset from the catalog (synthetic SNAP stand-ins);
- run the fused delta-stepping solver (the fast one);
- cross-check against Dijkstra;
- peek at the work counters the paper's analysis is built on.

Run:  python examples/quickstart.py
"""

from repro import datasets
from repro.sssp import check_against_dijkstra, delta_stepping, dijkstra


def main() -> None:
    # Every catalog graph documents which real SNAP/GraphChallenge dataset
    # family it stands in for (see repro.graphs.datasets).
    graph = datasets.load("roadgrid-small")
    print(f"graph: {graph}")
    print(f"  mimics: {graph.meta.get('mimics')}")

    # The paper's configuration: unit weights, delta = 1.
    result = delta_stepping(graph, source=0, delta=1.0, method="delta")
    print(f"\nresult: {result}")
    print(f"  reached      {result.num_reached} / {graph.num_vertices} vertices")
    print(f"  buckets      {result.buckets_processed}")
    print(f"  phases       {result.phases}  (simultaneous light/heavy relaxations)")
    print(f"  relaxations  {result.relaxations}  (requests generated)")
    print(f"  updates      {result.updates}  (requests that improved a distance)")

    # Distances to a few vertices (inf = unreachable).
    for v in (0, 1, 250, 9_999):
        print(f"  distance to {v:>5}: {result.distance_to(v):g}")

    # Validate against the textbook oracle — raises on any mismatch.
    check_against_dijkstra(graph, result)
    oracle = dijkstra(graph, 0)
    print(f"\nvalidated: distances match Dijkstra exactly "
          f"(max |diff| = {result.max_abs_difference(oracle):g})")

    # Each implementation from the paper is one registry name away:
    for method in ("meyer-sanders", "graphblas", "capi", "delta", "parallel"):
        r = delta_stepping(graph, source=0, delta=1.0, method=method)
        assert r.same_distances(oracle)
    print("all five implementations agree")


if __name__ == "__main__":
    main()
