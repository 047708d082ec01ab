#!/usr/bin/env python
"""Task-parallel delta-stepping: the paper's Fig. 4 experiment, hands-on.

Runs the §VI.C task decomposition on one graph with 1, 2 and 4 real
threads and reports each run's speedup over the same decomposition on
one thread, the measurement ``repro fig4`` makes over a whole suite.

The paper reports 1.44x at 2 threads and 1.5x at 4 over its sequential
fused C code, and puts the plateau past 2 threads down to the two coarse
A_L/A_H filter tasks, which bound that phase's parallelism no matter how
many workers you add.  Here, CPython's GIL and the host's core count
bound it too: only the NumPy kernels inside each task release the GIL.

Run:  python examples/parallel_scaling.py
"""

from repro.bench.timing import time_callable
from repro.bench.workloads import workload_for
from repro.sssp import dijkstra
from repro.sssp.parallel import parallel_delta_stepping


def main() -> None:
    wl = workload_for("slashdot-sim")
    print(f"workload: {wl.graph} (source {wl.source}, delta {wl.delta})")
    oracle = dijkstra(wl.graph, wl.source)

    def solve(threads: int):
        return parallel_delta_stepping(wl.graph, wl.source, wl.delta, num_threads=threads)

    print("\nreal threads on this host (best of 3):")
    print(f"{'threads':>8}  {'wall ms':>9}  {'vs 1 thread':>11}")
    one_thread = None
    for threads in (1, 2, 4):
        if not solve(threads).same_distances(oracle):
            raise SystemExit(f"{threads} threads: distances differ from Dijkstra")
        best = time_callable(lambda: solve(threads), repeats=3).best
        one_thread = one_thread or best
        print(f"{threads:>8}  {best * 1e3:>8.1f}  {one_thread / best:>10.2f}x")
    print("(paper: 1.44x at 2 threads, 1.5x at 4, over its sequential fused C code)")


if __name__ == "__main__":
    main()
