"""The STEP experiment: the stepping portfolio raced across graph families.

For each suite graph, every candidate stepper (classic Δ included) solves
from the canonical workload source.  All answers are verified
bit-identical to Dijkstra before timing — the portfolio is a set of
schedules over the *same* min-plus fixed point, so equality is exact.
Then the auto-tuner probes the same source and its pick is compared
against the best measured stepper; the acceptance claim is that the pick
lands within 10% of the best per graph family.

What the table shows (and why the subsystem exists): no column wins
everywhere.  Road meshes punish wide windows, power-law graphs punish
narrow ones, tiny-diameter graphs hand the win to plain Bellman–Ford —
the per-graph pick is the point.
"""

from __future__ import annotations

import numpy as np

from ..sssp.reference import dijkstra
from ..sssp.validate import ValidationError
from ..stepping import DEFAULT_CANDIDATES, AutoTuner, resolve_stepper_spec
from .reporting import format_table, geometric_mean
from .timing import time_callable
from .workloads import Workload, suite_workloads

__all__ = ["stepping_portfolio_series", "render_stepping_portfolio"]


def stepping_portfolio_series(
    workloads: list[Workload] | None = None,
    steppers: tuple[str, ...] | None = None,
    repeats: int = 3,
    verify: bool = True,
) -> list[dict]:
    """Per-(graph, stepper) timings plus the tuner's per-graph pick.

    Every row carries the tuner pick for its graph (``picked`` marks the
    row the tuner chose; ``vs_best`` is the row's slowdown over the best
    measured row), so the render can check the pick quality without
    re-deriving group structure.  *verify* raises
    :class:`ValidationError` on a mismatch.
    """
    workloads = workloads if workloads is not None else suite_workloads()
    steppers = tuple(steppers) if steppers is not None else DEFAULT_CANDIDATES
    rows: list[dict] = []
    for wl in workloads:
        oracle = dijkstra(wl.graph, wl.source).distances if verify else None
        timings: dict[str, float] = {}
        for name in steppers:
            s, params = resolve_stepper_spec(name)
            if verify:
                r = s.solve(wl.graph, wl.source, **params)
                if not np.array_equal(r.distances, oracle):
                    raise ValidationError(f"{wl.name}: stepper {name} differs from Dijkstra")
            stats = time_callable(
                lambda: s.solve(wl.graph, wl.source, **params), repeats=repeats
            )
            timings[name] = stats.best_ms
        # the tuner probes the same source under the same repeat budget,
        # so pick and measurement see the same conditions
        tuner = AutoTuner(candidates=steppers, repeats=repeats)
        pick = tuner.probe(wl.graph, sources=(wl.source,)).best
        best_ms = min(timings.values())
        for name in steppers:
            rows.append(
                {
                    "graph": wl.name,
                    "family": wl.graph.meta.get("family", "?"),
                    "nodes": wl.num_vertices,
                    "stepper": name,
                    "ms": timings[name],
                    "vs_best": timings[name] / best_ms if best_ms > 0 else 1.0,
                    "picked": "*" if name == pick else "",
                }
            )
    return rows


def render_stepping_portfolio(rows: list[dict]) -> str:
    """The STEP panel: portfolio table + tuner-pick-quality headline."""
    table = format_table(
        rows,
        columns=["graph", "family", "nodes", "stepper", "ms", "vs_best", "picked"],
        floatfmt=".3f",
    )
    # pick quality: per graph, the picked row's slowdown over the best
    pick_ratios: dict[str, float] = {}
    for r in rows:
        if r["picked"]:
            pick_ratios[r["graph"]] = r["vs_best"]
    worst = max(pick_ratios.values(), default=1.0)
    gmean = geometric_mean(pick_ratios.values()) if pick_ratios else 1.0
    within = sum(1 for v in pick_ratios.values() if v <= 1.10)
    verdict = "PASS" if worst <= 1.10 else "MISS"
    return (
        "STEP — Stepping-algorithm portfolio (all verified bit-identical to "
        "Dijkstra) + auto-tuner pick quality\n\n"
        f"{table}\n\n"
        f"Auto-tuner pick vs best measured: within 10% on "
        f"{within}/{len(pick_ratios)} graphs "
        f"(worst {worst:.2f}x, geometric mean {gmean:.2f}x) [{verdict}]\n"
    )
