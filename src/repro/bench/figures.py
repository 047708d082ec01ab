"""Series generators for every figure in the paper's evaluation.

- :func:`fig3_series` — Fig. 3: sequential runtime (ms) of the unfused
  GraphBLAS implementation vs the fused implementation, per graph,
  ascending node count; headline = average fused speedup (paper: 3.7×).
- :func:`fig4_series` — Fig. 4: task-parallel speedup at 2 and 4 real
  threads over the same task decomposition on one thread (paper: 1.44× /
  1.5× averages over its sequential fused C code).
- :func:`sec6c_profile` — §VI.C: share of the fused sequential solve's
  stage time spent in the A_L/A_H matrix filtering (paper: 35–40%), from
  a recorded run's per-stage span totals (:func:`sec6c_shares`).

Each returns plain dict-rows ready for
:func:`repro.bench.reporting.format_table`; ``render_*`` wraps them in
the figure-shaped ASCII output the CLI prints.
"""

from __future__ import annotations

from ..obs import Recorder
from ..obs.report import build_span_tree, stage_attribution
from ..sssp.fused import fused_delta_stepping
from ..sssp.graphblas_sssp import graphblas_delta_stepping
from ..sssp.parallel import parallel_delta_stepping
from ..sssp.validate import ValidationError
from .reporting import ascii_bar_chart, format_table, geometric_mean
from .timing import time_callable
from .workloads import Workload, suite_workloads

__all__ = [
    "fig3_series",
    "fig4_series",
    "sec6c_profile",
    "sec6c_shares",
    "render_fig3",
    "render_fig4",
    "render_sec6c",
]


def fig3_series(
    workloads: list[Workload] | None = None,
    repeats: int = 3,
    verify: bool = True,
) -> list[dict]:
    """Unfused vs fused sequential runtimes per graph (Fig. 3 series).

    With *verify*, each graph's unfused and fused distances must agree
    (row ``verified: "ok"``), else :class:`ValidationError` is raised.
    """
    workloads = workloads if workloads is not None else suite_workloads()
    rows = []
    for wl in workloads:
        unfused = time_callable(
            lambda: graphblas_delta_stepping(wl.graph, wl.source, wl.delta),
            repeats=repeats,
        )
        fused = time_callable(
            lambda: fused_delta_stepping(wl.graph, wl.source, wl.delta),
            repeats=repeats,
        )
        if verify:
            a = graphblas_delta_stepping(wl.graph, wl.source, wl.delta)
            b = fused_delta_stepping(wl.graph, wl.source, wl.delta)
            if not a.same_distances(b):
                raise ValidationError(f"{wl.name}: unfused distances differ from fused")
        rows.append(
            {
                "graph": wl.name,
                "nodes": wl.num_vertices,
                "edges": wl.num_edges,
                "unfused_ms": unfused.best_ms,
                "fused_ms": fused.best_ms,
                "speedup": unfused.best / fused.best,
                "verified": "ok" if verify else "-",
            }
        )
    return rows


def fig4_series(
    workloads: list[Workload] | None = None,
    threads: tuple[int, ...] = (2, 4),
    repeats: int = 3,
) -> list[dict]:
    """Task-parallel speedup per graph (Fig. 4), timed on real threads.

    Each ``speedup_<t>t`` is the best time of
    :func:`~repro.sssp.parallel.parallel_delta_stepping` on one thread
    over its best time on *t* threads, both taken in this call: the same
    task decomposition on both sides, so the ratio measures the threads
    alone.  The paper's 1.44×/1.5× are over its sequential fused C code;
    the compiled ``delta`` loop is not this decomposition, so no row
    divides by it.
    """
    workloads = workloads if workloads is not None else suite_workloads()
    rows = []
    for wl in workloads:

        def solve(num_threads: int):
            return parallel_delta_stepping(wl.graph, wl.source, wl.delta, num_threads=num_threads)

        one = time_callable(lambda: solve(1), repeats=repeats)
        row: dict = {"graph": wl.name, "nodes": wl.num_vertices, "ms_1t": one.best_ms}
        for t in threads:
            par = time_callable(lambda: solve(t), repeats=repeats)
            row[f"speedup_{t}t"] = one.best / par.best
        rows.append(row)
    return rows


#: stage-name groups for the §VI.C breakdown: every stage span the fused
#: solve emits with the split unfused and the relaxation fused (``bucket``
#: spans enclose stages, so they are no group's)
SEC6C_GROUPS = {
    "matrix_filter": ["filter:AL", "filter:AH"],
    "vector_filter": ["filter:settled", "outer:check"],
    "relaxation": ["relax:fused"],
}


def sec6c_shares(recorder: Recorder, groups: dict[str, list[str]]) -> dict[str, float]:
    """Percent of the grouped stage time spent in each group.

    A stage's time is the sum of its span durations in *recorder*
    (:func:`repro.obs.report.stage_attribution`); stages missing from the
    run count 0.
    """
    totals = {
        row["name"]: row["total_ms"]
        for row in stage_attribution(build_span_tree(recorder.trace.spans()))
    }
    merged = {g: sum(totals.get(s, 0.0) for s in stages) for g, stages in groups.items()}
    whole = sum(merged.values()) or 1.0
    return {g: 100.0 * ms / whole for g, ms in merged.items()}


def sec6c_profile(workloads: list[Workload] | None = None) -> list[dict]:
    """Share of the fused sequential solve's stage time per group (§VI.C).

    The paper's 35-40% matrix-filter share is measured on its *fused
    sequential C* implementation, with A_L and A_H still built
    separately, as the task decomposition requires.  This runs the fused
    solve the same way; the recorder makes it take the NumPy loop, whose
    stages are spans.
    """
    workloads = workloads if workloads is not None else suite_workloads()
    rows = []
    for wl in workloads:
        rec = Recorder()
        fused_delta_stepping(
            wl.graph, wl.source, wl.delta, fuse_matrix_split=False, recorder=rec
        )
        row = {"graph": wl.name, "nodes": wl.num_vertices}
        for gname, pct in sec6c_shares(rec, SEC6C_GROUPS).items():
            row[f"{gname}_pct"] = pct
        rows.append(row)
    return rows


# -- renderers ----------------------------------------------------------------


def render_fig3(rows: list[dict]) -> str:
    """The Fig. 3 panel: table + log-scale runtime chart + headline."""
    table = format_table(
        rows,
        columns=["graph", "nodes", "edges", "unfused_ms", "fused_ms", "speedup", "verified"],
    )
    chart = ascii_bar_chart(
        [r["graph"] for r in rows],
        {
            "SuiteSparse-style (unfused)": [r["unfused_ms"] for r in rows],
            "Fused impl.": [r["fused_ms"] for r in rows],
        },
        log_scale=True,
        unit="ms",
    )
    amean = sum(r["speedup"] for r in rows) / len(rows)
    gmean = geometric_mean(r["speedup"] for r in rows)
    return (
        "Fig. 3 — Unfused vs. Fused sequential performance "
        "(graphs ascending by node count)\n\n"
        f"{table}\n\n{chart}\n\n"
        f"Average fused speedup: {amean:.2f}x arithmetic, {gmean:.2f}x geometric "
        "(paper reports 3.7x average in C)\n"
    )


def render_fig4(rows: list[dict]) -> str:
    """The Fig. 4 panel: per-graph speedup bars + averages."""
    threads = sorted(
        int(k.split("_")[1][:-1]) for k in rows[0] if k.startswith("speedup_")
    )
    table = format_table(rows, columns=["graph", "nodes", "ms_1t"] + [f"speedup_{t}t" for t in threads])
    chart = ascii_bar_chart(
        [r["graph"] for r in rows],
        {f"{t} threads": [r[f"speedup_{t}t"] for r in rows] for t in threads},
        unit="x",
    )
    means = {
        t: sum(r[f"speedup_{t}t"] for r in rows) / len(rows) for t in threads
    }
    means_text = ", ".join(f"{t} threads: {m:.2f}x" for t, m in means.items())
    return (
        "Fig. 4 — Task-parallel speedup over the same task decomposition on "
        "one thread (real threads, graphs ascending by node count)\n\n"
        f"{table}\n\n{chart}\n\n"
        f"Average speedup: {means_text} "
        "(paper reports 1.44x at 2 threads, 1.5x at 4 threads, "
        "over its sequential fused C code)\n"
    )


def render_sec6c(rows: list[dict]) -> str:
    """The §VI.C panel: stage-share table + headline."""
    cols = ["graph", "nodes"] + [k for k in rows[0] if k.endswith("_pct")]
    table = format_table(rows, columns=cols)
    avg_filter = sum(r["matrix_filter_pct"] for r in rows) / len(rows)
    return (
        "§VI.C — Share of the fused sequential solve's stage time by "
        "operation group (NumPy loop, recorded)\n\n"
        f"{table}\n\n"
        f"Average A_L/A_H matrix-filter share: {avg_filter:.1f}% "
        "(paper reports 35-40%)\n"
    )
