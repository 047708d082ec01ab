"""ABL-FUSE — which fusion buys what share of the Fig. 3 speedup.

The paper lists two fusions (§VI.B): (1) Hadamard + vector-matrix
multiply, (2) the tBi/S/t vector-operation triple.  Our fused
implementation exposes each as a toggle; this ablation benchmarks all
four combinations plus the IR-pipeline call counts, attributing the
unfused→fused gap.  Every combination pins the NumPy ``scatter``
kernel (``auto`` would run the compiled loop whenever ``fuse_relax`` is
on, crediting C to the relax fusion) and splits afresh each round (the
per-epoch split cache would credit itself to the matrix-split fusion).
"""

from __future__ import annotations

import pytest

from repro.sssp import dijkstra
from repro.sssp.fused import _SPLIT_KEY, fused_delta_stepping

COMBOS = [
    ("none", dict(fuse_relax=False, fuse_matrix_split=False)),
    ("matrix-split", dict(fuse_relax=False, fuse_matrix_split=True)),
    ("relax", dict(fuse_relax=True, fuse_matrix_split=False)),
    ("all", dict(fuse_relax=True, fuse_matrix_split=True)),
]


@pytest.mark.parametrize("combo_name,flags", COMBOS, ids=[c[0] for c in COMBOS])
def bench_fusion_combo(benchmark, workload, combo_name, flags):
    benchmark.group = f"fusion-ablation:{workload.name}"
    g = workload.graph

    def run():
        g.meta.pop(_SPLIT_KEY, None)
        return fused_delta_stepping(g, workload.source, workload.delta, kernel="scatter", **flags)

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    oracle = dijkstra(workload.graph, workload.source)
    assert result.same_distances(oracle), f"{combo_name} diverges"
    benchmark.extra_info.update(flags)


def bench_ir_call_counts(benchmark, small_workload):
    """Static + dynamic GraphBLAS call counts, unfused vs fused IR."""
    from repro.ir import delta_stepping_program, fuse_program, lower_program, run_delta_stepping_ir

    wl = small_workload
    lowered = lower_program(delta_stepping_program())
    _, report = fuse_program(lowered)

    def run():
        return run_delta_stepping_ir(wl.graph, wl.source, wl.delta, fuse=True)

    benchmark.group = "fusion-ablation:ir"
    result = benchmark.pedantic(run, rounds=1, iterations=1)
    unfused = run_delta_stepping_ir(wl.graph, wl.source, wl.delta, fuse=False)
    benchmark.extra_info["static_calls_unfused"] = report.calls_before
    benchmark.extra_info["static_calls_fused"] = report.calls_after
    benchmark.extra_info["dynamic_calls_unfused"] = unfused.extra["calls_executed"]
    benchmark.extra_info["dynamic_calls_fused"] = result.extra["calls_executed"]
    assert result.extra["calls_executed"] < unfused.extra["calls_executed"]
