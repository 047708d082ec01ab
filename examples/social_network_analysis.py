#!/usr/bin/env python
"""Social-network analysis with the whole GraphBLAS toolbox.

The paper argues its translation patterns cover graph analytics beyond
SSSP; this example runs a small analytics pipeline — all on the same
pure-Python GraphBLAS substrate — over a power-law social graph:

- delta-stepping hop distances from a seed user (BFS-equivalent, §VII);
- degrees via matrix reduction (vertex-centric pattern);
- triangle count and 4-truss communities (the §II.C edge-centric
  pattern, ``S = AᵀA ∘ A``);
- connected components (min-label propagation).

Run:  python examples/social_network_analysis.py
"""

import numpy as np

from repro import datasets
from repro.algorithms import connected_components, ktruss, triangle_count
from repro.graphblas.monoid import PLUS_MONOID
from repro.sssp import delta_stepping


def main() -> None:
    social = datasets.load("facebook-sim")
    print(f"network: {social}")
    print(f"  mimics: {social.meta.get('mimics')}")

    # -- vertex-centric: degree distribution via per-row reduction ---------
    A = social.to_matrix()
    degrees = A.reduce_rows(PLUS_MONOID).to_dense(0).astype(int)
    top = np.argsort(degrees)[::-1][:5]
    print("\nmost-connected users (vertex-centric row reduction):")
    for u in top:
        print(f"  user {u:>5}: {degrees[u]} friends")

    # -- hop distances: delta-stepping at unit weights == BFS (§VII) -------
    seed = int(top[0])
    hops = delta_stepping(social, seed, 1.0, method="delta")
    reached = hops.reached()
    hist = np.bincount(hops.distances[reached].astype(int))
    print(f"\nhop distances from user {seed} (delta-stepping, Δ=1):")
    for h, count in enumerate(hist):
        print(f"  {h} hops: {count:>6} users  {'#' * (count * 40 // max(hist))}")
    print(f"  unreachable: {social.num_vertices - hops.num_reached}")

    # -- edge-centric: triangles and trusses (§II.C) ------------------------
    tri = triangle_count(social)
    print(f"\ntriangles (S = AᵀA ∘ A over PLUS_PAIR): {tri:,}")

    truss = ktruss(social, k=4)
    in_truss = np.unique(truss.row_ids_expanded())
    print(f"4-truss core: {truss.nvals // 2:,} edges over {len(in_truss):,} users "
          f"({100 * len(in_truss) / social.num_vertices:.1f}% of the network)")

    # -- components (min-label propagation over MIN_SECOND) ----------------
    labels = connected_components(social)
    sizes = np.bincount(labels)
    print(f"\nconnected components: {len(sizes)} "
          f"(largest = {sizes.max():,} users)")


if __name__ == "__main__":
    main()
