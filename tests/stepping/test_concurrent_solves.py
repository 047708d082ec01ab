"""Concurrent solves on one graph: every answer exact, none crashes.

Each resolve owns its relaxation arenas, so threads solving the same
:class:`~repro.graphs.graph.Graph` object share no scratch state.
"""

import sys
import threading

import numpy as np
import pytest

from repro.graphs.datasets import load
from repro.sssp import dijkstra
from repro.stepping import solve_with

THREADS = 4
ROUNDS = 10


@pytest.fixture(scope="module")
def road():
    """ci-road with uniform weights; its many thin waves keep the
    threads' solves overlapping."""
    g = load("ci-road", weights="uniform")
    sources = [0, 137, 451, 899]
    return g, {s: dijkstra(g, s).distances for s in sources}


@pytest.mark.parametrize(
    "spec, params",
    [("delta", {"delta": 0.5}), ("rho", {}), ("sharded(shards=2)", {"delta": 0.5})],
)
def test_threads_solving_one_graph_get_exact_answers(road, spec, params):
    g, expected = road
    sources = sorted(expected)
    start = threading.Barrier(THREADS)
    failures = []

    def worker(tid):
        start.wait()
        for r in range(ROUNDS):
            s = sources[(tid + r) % len(sources)]
            try:
                res = solve_with(spec, g, s, **params)
            except Exception as exc:  # a crash is a failure, not a skip
                failures.append(f"thread {tid} round {r}: {exc!r}")
                continue
            if not np.array_equal(res.distances, expected[s]):
                failures.append(f"thread {tid} round {r}: wrong distances from {s}")

    threads = [threading.Thread(target=worker, args=(t,)) for t in range(THREADS)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often: races show up sooner
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads), "a solver thread hung"
    assert not failures, f"{len(failures)}/{THREADS * ROUNDS} solves failed: {failures[:3]}"
