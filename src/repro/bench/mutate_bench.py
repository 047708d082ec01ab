"""The DYN experiment: incremental repair vs full recompute after mutations.

For each suite graph (uniform weights, so reweights are meaningful) and
each update-batch *fraction*, a deterministic randomized batch of edge
updates — reweights up and down, deletions, insertions — is applied
through :func:`repro.dynamic.apply_edge_updates`, and the post-mutation
distance vector is produced two ways:

- **repair** — :func:`repro.dynamic.repair_sssp` seeded from the batch,
  starting from the cached pre-mutation distances;
- **recompute** — a cold :func:`repro.sssp.fused.fused_delta_stepping`
  run on the mutated graph.

Both answers are compared bit-for-bit before timing (repair and
recompute converge to the same min-plus fixed point — see
:mod:`repro.dynamic.incremental`) and each row records the verdict.
The headline (:func:`mutation_repair_headline`) is the geometric-mean
repair speedup over the small batches: the dynamic-SSSP claim is that
repairing ≤1%-of-edges batches beats re-solving by ≥2x on average,
because the touched region — affected subtree plus improvement cone — is
a small fraction of the graph.  Single rows can fall below 2x, so the
worst small row is stored next to the mean.
"""

from __future__ import annotations

import numpy as np

from ..dynamic import apply_edge_updates, repair_sssp
from ..graphs import datasets
from ..sssp.delta import choose_delta
from ..sssp.fused import fused_delta_stepping
from .reporting import format_table, geometric_mean
from .timing import time_callable
from .workloads import active_suite_name, workload_for

__all__ = [
    "mutation_repair_series",
    "mutation_repair_headline",
    "render_mutation_repair",
    "build_update_batch",
    "SPEEDUP_TARGET",
]

#: batches touching at most this fraction of edges count as "small"
SMALL_FRACTION = 0.01
#: the headline criterion: geometric-mean repair speedup over the small
#: batches must reach this
SPEEDUP_TARGET = 2.0

#: update-batch mix, as fractions of the batch (rest is reweights)
_DELETE_SHARE = 0.2
_INSERT_SHARE = 0.2


def build_update_batch(graph, fraction: float, rng: np.random.Generator):
    """A randomized insert/delete/reweight batch touching ``fraction`` of edges.

    Updates are expressed in undirected-pair granularity (the suite
    graphs are symmetric); reweights scale the stored weight by
    U(0.5, 1.5) — a mix of increases and decreases — deletes drop random
    pairs, inserts add random non-edges with suite-range weights.
    Categories never overlap, matching the batch semantics.
    """
    n = graph.num_vertices
    src_all = graph.row_sources()
    upper = np.nonzero(src_all < graph.indices)[0]  # one slot per undirected pair
    total = max(1, int(fraction * len(upper)))
    num_del = int(total * _DELETE_SHARE)
    num_ins = int(total * _INSERT_SHARE)
    num_rw = max(1, total - num_del - num_ins)

    pick = rng.choice(upper, size=min(num_rw + num_del, len(upper)), replace=False)
    rw_pos, del_pos = pick[:num_rw], pick[num_rw:]
    reweights = (
        src_all[rw_pos],
        graph.indices[rw_pos],
        graph.weights[rw_pos] * rng.uniform(0.5, 1.5, size=len(rw_pos)),
    )
    deletes = (src_all[del_pos], graph.indices[del_pos])

    existing = set(map(int, src_all * np.int64(n) + graph.indices))
    ins_s, ins_d = [], []
    # bounded rejection sampling: dense graphs may not have num_ins
    # non-edges, so give up after a generous budget rather than spin
    for _ in range(max(200, 50 * num_ins)):
        if len(ins_s) >= num_ins:
            break
        u, v = int(rng.integers(n)), int(rng.integers(n))
        if u == v or u * n + v in existing or v * n + u in existing:
            continue
        existing.add(u * n + v)
        existing.add(v * n + u)
        ins_s.append(u)
        ins_d.append(v)
    inserts = (
        np.asarray(ins_s, dtype=np.int64),
        np.asarray(ins_d, dtype=np.int64),
        rng.uniform(0.05, 1.0, size=len(ins_s)),
    )
    return inserts, deletes, reweights


def mutation_repair_series(
    suite: str | None = None,
    fractions: tuple[float, ...] = (0.002, 0.01, 0.05),
    repeats: int = 3,
    seed: int = 17,
    verify: bool = True,
) -> list[dict]:
    """Per-(graph, fraction) repair-vs-recompute timings."""
    names = datasets.suite_names(suite or active_suite_name())
    rows = []
    for name in names:
        base = datasets.load(name, weights="uniform", seed=3)
        source = workload_for(name).source  # component structure is weight-free
        delta = choose_delta(base)
        d0 = fused_delta_stepping(base, source, delta).distances
        rng = np.random.default_rng(seed)
        for fraction in fractions:
            graph = base.copy()
            inserts, deletes, reweights = build_update_batch(graph, fraction, rng)
            applied = apply_edge_updates(
                graph, inserts=inserts, deletes=deletes, reweights=reweights
            )
            repaired = repair_sssp(graph, source, d0, applied, delta=delta)
            # an explicit row field, not `assert`: it must survive `python -O`
            if verify:
                oracle = fused_delta_stepping(graph, source, delta).distances
                verified = "ok" if np.array_equal(repaired.distances, oracle) else "FAIL"
            else:
                verified = "-"
            repair_t = time_callable(
                lambda: repair_sssp(graph, source, d0, applied, delta=delta),
                repeats=repeats,
            )
            recompute_t = time_callable(
                lambda: fused_delta_stepping(graph, source, delta), repeats=repeats
            )
            rows.append(
                {
                    "graph": name,
                    "edges": base.num_edges,
                    "fraction": fraction,
                    "updates": applied.num_updates,
                    "affected": repaired.affected,
                    "repair_ms": repair_t.best_ms,
                    "recompute_ms": recompute_t.best_ms,
                    "speedup": recompute_t.best / repair_t.best,
                    "verified": verified,
                }
            )
    return rows


def mutation_repair_headline(rows: list[dict]) -> dict:
    """The machine-readable verdict stored in ``BENCH_DYN.json``.

    ``passed`` requires every row verified bit-identical to recompute and
    the geometric-mean repair speedup over the small batches (fraction ≤
    :data:`SMALL_FRACTION`) ≥ :data:`SPEEDUP_TARGET`.
    """
    all_verified = all(r["verified"] == "ok" for r in rows)
    small = [r for r in rows if r["fraction"] <= SMALL_FRACTION]
    gmean = geometric_mean(r["speedup"] for r in small) if small else 0.0
    worst = min(small, key=lambda r: r["speedup"], default=None)
    return {
        "criterion": (
            f"every repair bit-identical to recompute; geometric-mean repair "
            f"speedup over <= {SMALL_FRACTION:.0%}-of-edges batches >= "
            f"{SPEEDUP_TARGET}x"
        ),
        "all_verified": all_verified,
        "small_gmean_speedup": gmean,
        "small_worst": (
            {k: worst[k] for k in ("graph", "fraction", "speedup")} if worst else None
        ),
        "speedup_target": SPEEDUP_TARGET,
        "passed": all_verified and gmean >= SPEEDUP_TARGET,
    }


def render_mutation_repair(rows: list[dict]) -> str:
    """The DYN panel: per-(graph, fraction) table + small-batch headline."""
    table = format_table(
        rows,
        columns=[
            "graph", "edges", "fraction", "updates", "affected",
            "repair_ms", "recompute_ms", "speedup", "verified",
        ],
        floatfmt=".3f",
    )
    head = mutation_repair_headline(rows)
    worst = head["small_worst"]
    worst_text = (
        f"worst {worst['graph']} at {worst['fraction']:g}: {worst['speedup']:.2f}x"
        if worst else "no small batches"
    )
    gmean = geometric_mean(r["speedup"] for r in rows) if rows else 0.0
    verdict = "PASS" if head["passed"] else "MISS"
    return (
        "DYN — Incremental SSSP repair vs full recompute after edge-update "
        "batches (verified bit-identical)\n\n"
        f"{table}\n\n"
        f"Small batches (<={SMALL_FRACTION:.0%} of edges): geometric mean "
        f"{head['small_gmean_speedup']:.2f}x repair speedup ({worst_text}; "
        f"target >= {SPEEDUP_TARGET}x) [{verdict}]; all batches {gmean:.2f}x\n"
    )
