#!/usr/bin/env python
"""Road-network routing: the high-diameter regime delta-stepping targets.

Road networks are the workload Meyer & Sanders designed delta-stepping
for: enormous diameter (thousands of BFS levels), low degree, real-valued
edge lengths.  This example:

1. builds a weighted road-network stand-in (perturbed mesh, hash-derived
   edge lengths — see ``repro.graphs.weights``);
2. sweeps Δ to show the work/parallelism trade-off (§III / the ABL-DELTA
   ablation): small Δ ⇒ many buckets with tiny phases (Dijkstra-like),
   large Δ ⇒ few buckets with re-relaxation churn (Bellman-Ford-like);
3. reconstructs an actual shortest route from the distance array.

Run:  python examples/road_network_routing.py
"""

import numpy as np

from repro.graphs import generators
from repro.graphs.weights import assign_weights
from repro.sssp import delta_stepping, dijkstra, path_weight, reconstruct_path
from repro.sssp.delta import bellman_ford_equivalent_delta, choose_delta


def main() -> None:
    # ~90x90 city: 4-connected street grid, 5% diagonal shortcuts,
    # 5% closed streets, segment lengths in [0.05, 1.0) "km".
    base = generators.road_network(90, 90, extra_prob=0.05, drop_prob=0.05, seed=17)
    city = assign_weights(base, "uniform", low=0.05, high=1.0, seed=3)
    print(f"city: {city} (weights in [{city.min_weight:.2f}, {city.max_weight:.2f}])")

    source, target = 0, city.num_vertices - 1

    # -- delta sweep --------------------------------------------------------
    oracle = dijkstra(city, source)
    deltas = [0.05, 0.1, 0.25, 0.5, 1.0, bellman_ford_equivalent_delta(city)]
    print(f"\n{'delta':>10}  {'buckets':>8}  {'phases':>7}  {'relaxations':>12}")
    for delta in deltas:
        r = delta_stepping(city, source, delta, method="delta")
        assert r.same_distances(oracle)
        label = f"{delta:10.2f}" if delta < 1e4 else "  BF-like "
        print(f"{label}  {r.buckets_processed:8d}  {r.phases:7d}  {r.relaxations:12d}")
    print("(same distances every time — Δ only moves work between phases)")

    auto = choose_delta(city)
    print(f"\nauto-selected delta (Meyer-Sanders Θ(1/d̄) heuristic): {auto:.4f}")

    # -- route reconstruction (tight-edge walk; see repro.sssp.paths) -------
    result = delta_stepping(city, source, auto, method="delta")
    route = reconstruct_path(city, result, target)
    if route:
        assert np.isclose(path_weight(city, route), result.distances[target])
        print(f"\nshortest route {source} → {target}: "
              f"{result.distances[target]:.3f} km over {len(route) - 1} segments")
        head = " -> ".join(map(str, route[:8]))
        print(f"  {head} -> ... -> {route[-1]}")
    else:
        print(f"\ntarget {target} not reachable from {source} (street closures)")


if __name__ == "__main__":
    main()
