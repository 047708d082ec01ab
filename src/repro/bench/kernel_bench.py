"""The KERNEL experiment: the shared relaxation-kernel core, raced vs seed.

The repo's perf claim for the kernel core (``repro.kernels``) is
concrete: the O(m) scatter-min per-target kernel plus the reusable
workspace plus the lazy bucket queue must beat the *seed* fused
implementation — the pre-kernel-core hot loop with its per-phase
argsort, per-phase temporaries, and per-bucket full-``t`` scans — by
≥1.5× phase throughput on at least one CI graph class, with **zero
correctness drift** (bit-identity against Dijkstra on every graph, for
every kernel).

To keep that comparison honest across future PRs, the seed loop is
frozen *here*, verbatim (:func:`seed_fused_delta_stepping`): the bench
always races today's kernels against the same yardstick, and the
results land in ``BENCH_KERNEL.json`` — the machine-readable perf
trajectory CI's smoke gate reads (scatter must never regress more than
10% behind seed).

Phase throughput is relaxations per second: every variant executes the
identical phase schedule (asserted via phase/relaxation/update counter
equality), so the time ratio *is* the throughput ratio.
"""

from __future__ import annotations

import numpy as np

from ..graphs.graph import Graph
from ..sssp.fused import fused_delta_stepping
from ..sssp.reference import dijkstra
from ..sssp.result import INF, SSSPResult
from .reporting import format_table
from .timing import time_callable
from .workloads import Workload, suite_workloads

__all__ = [
    "kernel_bench_series",
    "render_kernel_bench",
    "kernel_bench_headline",
    "seed_fused_delta_stepping",
    "SPEEDUP_TARGET",
    "SMOKE_TOLERANCE",
]

#: the headline criterion: best new-kernel speedup over seed must reach
#: this on at least one CI graph class
SPEEDUP_TARGET = 1.5
#: the CI smoke gate: scatter may not be slower than seed by more than
#: this factor on the smoke graphs (0.9 == "no more than 10% slower")
SMOKE_TOLERANCE = 0.9


# --------------------------------------------------------------------------
# The frozen seed implementation (the pre-`repro.kernels` hot loop).
# Deliberately NOT refactored onto the shared kernels: this is the
# yardstick, kept allocation-for-allocation identical to the seed.
# --------------------------------------------------------------------------


def _seed_split_csr(graph: Graph, delta: float):
    indptr, indices, weights = graph.csr()
    n = graph.num_vertices

    def build(keep: np.ndarray):
        counts = np.bincount(
            np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))[keep],
            minlength=n,
        )
        sub_indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        return sub_indptr, indices[keep], weights[keep]

    light = weights <= delta
    return build(light), build(~light)


def _seed_gather(indptr, indices, weights, frontier, t):
    starts = indptr[frontier]
    lengths = indptr[frontier + 1] - starts
    total = int(lengths.sum())
    if total == 0:
        return None, None
    offsets = np.repeat(np.cumsum(lengths) - lengths, lengths)
    flat = np.arange(total, dtype=np.int64) - offsets + np.repeat(starts, lengths)
    targets = indices[flat]
    dists = np.repeat(t[frontier], lengths) + weights[flat]
    return targets, dists


def _seed_min_by_target(targets, dists):
    order = np.argsort(targets, kind="stable")
    ts = targets[order]
    ds = dists[order]
    boundaries = np.empty(len(ts), dtype=bool)
    boundaries[0] = True
    np.not_equal(ts[1:], ts[:-1], out=boundaries[1:])
    starts = np.nonzero(boundaries)[0]
    return ts[starts], np.minimum.reduceat(ds, starts)


def seed_fused_delta_stepping(graph: Graph, source: int, delta: float = 1.0) -> SSSPResult:
    """The seed fused Δ-stepper, frozen as the KERNEL bench yardstick."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    n = graph.num_vertices
    if not 0 <= source < n:
        raise IndexError(f"source {source} out of range [0, {n})")
    (ALp, ALi, ALw), (AHp, AHi, AHw) = _seed_split_csr(graph, delta)
    t = np.full(n, INF, dtype=np.float64)
    t[source] = 0.0
    in_bucket = np.zeros(n, dtype=bool)
    settled_set = np.zeros(n, dtype=bool)
    counters = {"buckets": 0, "phases": 0, "relaxations": 0, "updates": 0}

    def relax(indptr, indices, weights, frontier, lo, hi, track_bucket):
        targets, dists = _seed_gather(indptr, indices, weights, frontier, t)
        if targets is None:
            return np.empty(0, dtype=np.int64)
        counters["relaxations"] += len(targets)
        uts, ubest = _seed_min_by_target(targets, dists)
        improved = ubest < t[uts]
        uts = uts[improved]
        ubest = ubest[improved]
        counters["updates"] += len(uts)
        t[uts] = ubest
        if track_bucket:
            reenter = (ubest >= lo) & (ubest < hi)
            return uts[reenter]
        return uts

    i = 0
    while True:
        finite = np.isfinite(t)
        remaining = finite & (t >= i * delta)
        if not remaining.any():
            break
        i = max(i, int(t[remaining].min() // delta))
        lo, hi = i * delta, (i + 1) * delta
        counters["buckets"] += 1
        np.logical_and(t >= lo, t < hi, out=in_bucket)
        frontier = np.nonzero(in_bucket)[0]
        settled_set[:] = False
        while len(frontier):
            counters["phases"] += 1
            settled_set[frontier] = True
            frontier = relax(ALp, ALi, ALw, frontier, lo, hi, track_bucket=True)
        settled = np.nonzero(settled_set)[0]
        if len(settled):
            counters["phases"] += 1
            relax(AHp, AHi, AHw, settled, lo, hi, track_bucket=False)
        i += 1

    return SSSPResult(
        distances=t,
        source=source,
        delta=delta,
        method="seed-fused",
        buckets_processed=counters["buckets"],
        phases=counters["phases"],
        relaxations=counters["relaxations"],
        updates=counters["updates"],
    )


# --------------------------------------------------------------------------
# The experiment
# --------------------------------------------------------------------------

#: the raced variants: name → solve callable factory ``(wl) -> fn``
def _variants(wl: Workload):
    return {
        "seed": lambda: seed_fused_delta_stepping(wl.graph, wl.source, wl.delta),
        "argsort": lambda: fused_delta_stepping(wl.graph, wl.source, wl.delta, kernel="argsort"),
        "scatter": lambda: fused_delta_stepping(wl.graph, wl.source, wl.delta, kernel="scatter"),
        "auto": lambda: fused_delta_stepping(wl.graph, wl.source, wl.delta, kernel="auto"),
    }


def kernel_bench_series(
    workloads: list[Workload] | None = None,
    repeats: int = 5,
    verify: bool = True,
) -> list[dict]:
    """Per-(graph, variant) timings, verified bit-identical to Dijkstra.

    Every graph leads with its ``seed`` row; kernel rows carry the
    speedup over that seed and the derived phase throughput (relaxations
    per millisecond — schedules are counter-identical across variants,
    asserted here, so the ratio is exactly the phase-throughput ratio).
    """
    workloads = workloads if workloads is not None else suite_workloads()
    rows: list[dict] = []
    for wl in workloads:
        oracle = dijkstra(wl.graph, wl.source).distances if verify else None
        variants = _variants(wl)
        # one untimed run per variant: the verification answer and the warmup
        results = {name: run() for name, run in variants.items()}
        seed_res = results["seed"]
        # time in alternating rounds and keep each variant's best: the CI
        # solves take about 1 ms, so host drift between back-to-back
        # per-variant blocks would otherwise read as a kernel difference
        best = dict.fromkeys(variants, float("inf"))
        for _ in range(repeats):
            for name, run in variants.items():
                stats = time_callable(run, repeats=1, warmup=0, min_total_seconds=0.02)
                best[name] = min(best[name], stats.best)
        seed_ms = best["seed"] * 1e3
        for name, res in results.items():
            # explicit checks, not `assert`: they must survive `python -O`
            # and land in the rows so the gate can actually fail
            if verify and not np.array_equal(res.distances, oracle):
                verified = "FAIL"
            elif verify:
                verified = "ok"
            else:
                verified = "-"
            # phases/relaxations/updates must match seed exactly or the
            # phase-throughput comparison is void — that is a kernel-core
            # bug, not a measurement outcome.  buckets_processed is NOT
            # compared: at misrounding bucket boundaries the seed's
            # division-based index walks (and counts) phantom empty
            # buckets its own product-based window test then rejects; the
            # lazy queue never visits those (matching the Meyer–Sanders
            # reference, which also skips empties), so bucket counts may
            # legitimately differ with zero work done differently.
            if (res.phases, res.relaxations, res.updates) != (
                seed_res.phases, seed_res.relaxations, seed_res.updates,
            ):
                raise RuntimeError(
                    f"{wl.name}: variant {name!r} walked a different "
                    f"phase schedule than seed"
                )
            ms = best[name] * 1e3
            rows.append(
                {
                    "graph": wl.name,
                    "family": wl.graph.meta.get("family", "?"),
                    "nodes": wl.num_vertices,
                    "edges": wl.num_edges,
                    "variant": name,
                    "ms": ms,
                    "speedup": seed_ms / ms if ms > 0 else 1.0,
                    "phases": res.phases,
                    "relax_per_ms": res.relaxations / ms if ms > 0 else 0.0,
                    "verified": verified,
                }
            )
    return rows


def kernel_bench_headline(rows: list[dict]) -> dict:
    """The machine-readable verdict stored in ``BENCH_KERNEL.json``.

    ``passed`` requires every row verified and the best new-kernel
    speedup over seed ≥ :data:`SPEEDUP_TARGET` on at least one graph;
    ``smoke_ok`` is the CI gate (scatter ≥ :data:`SMOKE_TOLERANCE` ×
    seed throughput on every measured graph).
    """
    kernel_rows = [r for r in rows if r["variant"] != "seed"]
    all_verified = all(r["verified"] in ("ok", "-") for r in rows)
    best = max(kernel_rows, key=lambda r: r["speedup"], default=None)
    scatter_worst = min(
        (r["speedup"] for r in kernel_rows if r["variant"] == "scatter"),
        default=0.0,
    )
    return {
        "criterion": (
            f"bit-identical to Dijkstra everywhere; best kernel >= "
            f"{SPEEDUP_TARGET}x seed phase throughput on >= 1 graph"
        ),
        "all_verified": all_verified,
        "best_speedup": best["speedup"] if best else 0.0,
        "best_graph": best["graph"] if best else None,
        "best_variant": best["variant"] if best else None,
        "scatter_worst_speedup": scatter_worst,
        "smoke_ok": all_verified and scatter_worst >= SMOKE_TOLERANCE,
        "passed": all_verified and best is not None and best["speedup"] >= SPEEDUP_TARGET,
    }


def render_kernel_bench(rows: list[dict]) -> str:
    """The KERNEL panel: variant table + speedup headline."""
    table = format_table(
        rows,
        columns=[
            "graph", "family", "nodes", "edges", "variant", "ms",
            "speedup", "phases", "relax_per_ms", "verified",
        ],
        floatfmt=".3f",
    )
    head = kernel_bench_headline(rows)
    best_per_graph: dict[str, dict] = {}
    for r in rows:
        if r["variant"] == "seed":
            continue
        cur = best_per_graph.get(r["graph"])
        if cur is None or r["speedup"] > cur["speedup"]:
            best_per_graph[r["graph"]] = r
    lines = [
        "KERNEL — Shared relaxation-kernel core vs the frozen seed hot loop "
        "(every variant verified bit-identical to Dijkstra, identical "
        "phase schedule)",
        "",
        table,
        "",
    ]
    for g, r in best_per_graph.items():
        lines.append(
            f"{g}: best {r['speedup']:.2f}x over seed ({r['variant']}), "
            f"{r['relax_per_ms']:.0f} relaxations/ms"
        )
    verdict = "PASS" if head["passed"] else "MISS"
    lines.append(
        f"\nBest kernel speedup {head['best_speedup']:.2f}x on "
        f"{head['best_graph']} (target >= {SPEEDUP_TARGET}x on >= 1 graph), "
        f"verification {'ok' if head['all_verified'] else 'FAILED'} [{verdict}]"
    )
    return "\n".join(lines) + "\n"
