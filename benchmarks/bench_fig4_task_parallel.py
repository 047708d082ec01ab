"""FIG4 — Figure 4: task-based parallel speedup on real threads.

Paper claim: OpenMP task parallelism yields average speedups of 1.44×
with two threads and 1.5× with four, normalized to the fused sequential
implementation; gains plateau past two threads because the two coarse
matrix-filter tasks bound that phase's parallelism.

Times the paper's task decomposition on 1, 2 and 4 real threads.  The
1-thread run is every speedup's denominator, as in ``repro fig4``: the
same decomposition on both sides, so the ratio measures the threads.

Run::

    pytest benchmarks/bench_fig4_task_parallel.py --benchmark-only
    python -m repro fig4 --suite paper
"""

from __future__ import annotations

import pytest

from repro.sssp.fused import fused_delta_stepping
from repro.sssp.parallel import parallel_delta_stepping


@pytest.mark.parametrize("threads", [1, 2, 4])
def bench_parallel_threads(benchmark, workload, threads):
    """Real-thread task-parallel runs (1, 2, 4 workers)."""
    benchmark.group = f"fig4:{workload.name}"
    result = benchmark.pedantic(
        lambda: parallel_delta_stepping(
            workload.graph, workload.source, workload.delta, num_threads=threads
        ),
        rounds=3,
        iterations=1,
        warmup_rounds=1,
    )
    assert result.same_distances(
        fused_delta_stepping(workload.graph, workload.source, workload.delta)
    )
