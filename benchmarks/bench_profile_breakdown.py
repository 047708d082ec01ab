"""SEC6C — §VI.C text claim: A_L/A_H matrix filtering is 35-40% of the
sequential runtime.

Records the fused sequential implementation (with the matrix split
un-fused, matching the paper's task decomposition) and stores the share
of wall-clock per operation group, summed from the stage spans, as
``extra_info``.

Run::

    pytest benchmarks/bench_profile_breakdown.py --benchmark-only
    python -m repro profile --suite paper
"""

from __future__ import annotations

from repro.bench.figures import SEC6C_GROUPS, sec6c_shares
from repro.obs import Recorder
from repro.sssp.fused import fused_delta_stepping


def bench_fused_instrumented(benchmark, workload):
    """Recorded fused run; stage shares over all rounds in extra_info."""
    benchmark.group = f"sec6c:{workload.name}"
    rec = Recorder()
    benchmark.pedantic(
        lambda: fused_delta_stepping(
            workload.graph,
            workload.source,
            workload.delta,
            fuse_matrix_split=False,
            recorder=rec,
        ),
        rounds=3,
        iterations=1,
    )
    for k, v in sec6c_shares(rec, SEC6C_GROUPS).items():
        benchmark.extra_info[f"{k}_pct"] = round(v, 1)
