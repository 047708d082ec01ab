"""Incremental SSSP repair: delta-stepping waves seeded from an update batch.

Given a distance vector solved against the *pre-mutation* graph and the
:class:`~repro.dynamic.mutations.AppliedUpdates` record of one batch,
:func:`repair_sssp` produces the distance vector of the *post-mutation*
graph — bit-identical to a full :func:`repro.sssp.fused.fused_delta_stepping`
recompute — while touching only the region the updates actually reach.
The repair waves are one run of the fused solver's own Δ-bucket loop
(:func:`repro.sssp.fused.run_buckets`, compiled when it loaded) over the
epoch's cached light/heavy split; what changes is the seeding, following
the dynamic-SSSP decomposition of SSSP-Del (Javanrood & Ripeanu):

- **decrease-only batches** (inserts, weight decreases): the cached
  distances remain valid upper bounds, so the repair scatter-mins
  ``d[u] ⊕ w_new`` through the improving edges and seeds buckets with
  only the heads that actually improved;
- **general batches** (deletes, weight increases): distances downstream
  of a lost shortest path are stale-low and must be *invalidated* first.
  The affected set is found on the predecessor structure — the tight-edge
  DAG ``{(u, v) : d[v] == d[u] ⊕ w(u, v)}``, i.e. every vertex's full set
  of shortest-path predecessors, not one spanning tree — by support
  counting: a vertex is affected once every tight in-edge it had comes
  from an affected vertex (Kahn's algorithm over the DAG; exact for
  positive weights).  Zero-weight edges can close tight *cycles*, where
  support counting under-marks, so their presence switches to the
  conservative closure (affected if *any* tight predecessor is affected)
  — a superset, so repair stays exact, just larger.  Affected distances
  are reset to ``inf`` and re-seeded from the one vectorized pass that
  gathers every edge crossing from the intact region into the hole.

Bit-identity with the full recompute is not a coincidence: both
algorithms run min-plus relaxation with the same float additions to
quiescence, and the quiescent point — ``d[v] ≤ d[u] ⊕ w`` on every edge,
every value witnessed by a path — is unique because IEEE addition is
monotone.  Processing order cannot change the answer, only the work.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..graphs.graph import Graph
from ..kernels import cached_row_ids, expand_rows
from ..sssp.delta import choose_delta
from ..sssp.fused import cached_split, fused_delta_stepping, run_buckets
from ..sssp.result import INF
from .mutations import AppliedUpdates

__all__ = ["RepairResult", "repair_sssp", "affected_vertices"]


@dataclass(frozen=True)
class RepairResult:
    """The repaired distances plus the work the repair actually did.

    ``mode`` is ``"noop"`` (empty batch), ``"decrease-only"`` (no
    invalidation phase), or ``"general"``.  ``affected`` counts vertices
    invalidated through the predecessor structure; ``seeds`` counts the
    vertices whose tentative distance the seeding phase touched —
    together they bound the repaired region.  Bucket/phase/relaxation
    counters mirror :class:`repro.sssp.result.SSSPResult`.
    """

    distances: np.ndarray
    source: int
    delta: float
    mode: str
    affected: int = 0
    seeds: int = 0
    buckets: int = 0
    phases: int = 0
    relaxations: int = 0
    updates: int = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RepairResult<{self.mode}: affected={self.affected}, "
            f"seeds={self.seeds}, buckets={self.buckets}, phases={self.phases}>"
        )


def affected_vertices(
    graph: Graph,
    distances: np.ndarray,
    changed: tuple[np.ndarray, np.ndarray, np.ndarray],
    source: int,
) -> np.ndarray:
    """Boolean mask of vertices whose cached distance lost its support.

    *changed* is ``(src, dst, w_old)`` of every stored edge that no
    longer exists at its old weight — deleted, increased, **and
    decreased** edges alike.  A decreased edge cannot worsen its head by
    itself, but in a mixed batch its head's old support evaporates just
    the same (the edge is no longer tight at ``w_old``), and if the tail
    is worsened the head must re-derive its distance — omitting
    decreases here is exactly the under-marking that lets stale-low
    distances survive.  *graph* is the post-mutation graph; *distances*
    the pre-mutation solution.  Support counting over the tight-edge DAG
    of the new graph (see module docstring); falls back to the
    conservative closure when zero-weight edges could close tight
    cycles.  The source is never affected.  The edge scan reads the
    graph's own arrays (and its cached row-id expansion); it copies none.
    """
    n = graph.num_vertices
    d = distances
    w_src, w_dst, w_old = changed
    aff = np.zeros(n, dtype=bool)
    if len(w_src) == 0:
        return aff
    # roots: heads of worsened edges that were tight (supporting) at the
    # old weight — float equality is exact because the old solve computed
    # d[dst] as d[src] ⊕ w_old along supporting edges
    finite = np.isfinite(d[w_src])
    root_mask = finite & (d[w_dst] == d[w_src] + w_old)
    roots = np.unique(w_dst[root_mask])
    roots = roots[roots != source]
    if len(roots) == 0:
        return aff

    # the tight-edge DAG of the post-mutation graph (one O(E) pass); CSR
    # order keeps tsrc sorted, so the DAG is itself CSR-addressable
    srcs, dsts, w = cached_row_ids(graph), graph.indices, graph.weights
    tight = np.isfinite(d[srcs]) & (d[dsts] == d[srcs] + w)
    tsrc, tdst = srcs[tight], dsts[tight]
    t_indptr = np.concatenate(
        [[0], np.cumsum(np.bincount(tsrc, minlength=n))]
    ).astype(np.int64)

    exact = not bool((graph.weights == 0).any())
    if exact:
        # Kahn over the tight DAG: a root with surviving support is NOT
        # affected; a vertex is affected once its support count hits zero
        support = np.bincount(tdst, minlength=n)
        frontier = roots[support[roots] == 0]
        aff[frontier] = True
        while len(frontier):
            hit = tdst[expand_rows(t_indptr, frontier)[0]]
            if len(hit) == 0:
                break
            np.subtract.at(support, hit, 1)
            newly = np.unique(hit)
            newly = newly[(support[newly] == 0) & ~aff[newly]]
            newly = newly[newly != source]
            aff[newly] = True
            frontier = newly
    else:
        # zero-weight tight cycles defeat support counting: take the
        # closure instead (over-marking is exact, only more work)
        aff[roots] = True
        frontier = roots
        while len(frontier):
            hit = tdst[expand_rows(t_indptr, frontier)[0]]
            newly = np.unique(hit)
            newly = newly[~aff[newly] & (newly != source)]
            aff[newly] = True
            frontier = newly
        aff[source] = False
    return aff


def repair_sssp(
    graph: Graph,
    source: int,
    distances: np.ndarray,
    updates: AppliedUpdates,
    delta: float | None = None,
    validate: bool = False,
    recorder=None,
) -> RepairResult:
    """Repair a cached distance vector after one applied update batch.

    Parameters
    ----------
    graph:
        The **post-mutation** graph (as left by
        :func:`repro.dynamic.apply_edge_updates`).
    source:
        The solve's source vertex.
    distances:
        The distance vector solved against the pre-mutation graph (not
        modified; cached read-only arrays are accepted).
    updates:
        The :class:`AppliedUpdates` record of the batch.
    delta:
        Bucket width of the repair waves (``None``: auto-chosen on the
        new graph).  Any positive Δ yields the same distances.
    validate:
        Also run the full recompute and raise ``RuntimeError`` on any
        mismatch (for tests and paranoid callers).
    recorder:
        A truthy :class:`repro.obs.Recorder` wraps the repair in a
        ``repair`` span (mode, affected, seeds, phases as args),
        observes the wall time into a ``repair.ms`` histogram and counts
        ``repair.runs``.  It is not handed to the waves, which stay on
        the compiled loop; recording never changes the repaired
        distances.

    Returns a :class:`RepairResult` whose ``distances`` are bit-identical
    to ``fused_delta_stepping(graph, source, delta).distances``.
    """
    if not recorder:
        return _repair_sssp(graph, source, distances, updates, delta, validate)
    t0 = time.perf_counter()
    # first touch fixes the buckets: repairs are ms-scale, so pin the
    # sub-ms "latency-ms" preset before the first observe
    recorder.metrics.histogram("repair.ms", buckets="latency-ms")
    with recorder.span("repair", source=int(source)) as sp:
        result = _repair_sssp(graph, source, distances, updates, delta, validate)
        sp.set(
            mode=result.mode, affected=result.affected,
            seeds=result.seeds, phases=result.phases,
        )
    recorder.observe("repair.ms", (time.perf_counter() - t0) * 1e3)
    recorder.inc("repair.runs")
    return result


def _repair_sssp(
    graph: Graph,
    source: int,
    distances: np.ndarray,
    updates: AppliedUpdates,
    delta: float | None,
    validate: bool,
) -> RepairResult:
    """:func:`repair_sssp` body (the public wrapper adds the span)."""
    n = graph.num_vertices
    if not 0 <= source < n:
        raise IndexError(f"source {source} out of range [0, {n})")
    d = np.array(distances, dtype=np.float64)  # private writable copy
    if d.ndim != 1 or len(d) != n:
        raise ValueError(f"expected a length-{n} distance vector, got shape {d.shape}")
    if delta is None:
        delta = choose_delta(graph)
    if delta <= 0:
        raise ValueError("delta must be positive")

    work = {"steps": 0, "phases": 0, "relaxations": 0, "updates": 0}
    dirty = np.zeros(n, dtype=bool)
    mode = "noop"
    affected_count = 0

    # -- invalidation phase (deletes / increases) ---------------------------
    worsened = updates.worsening_edges()
    if len(worsened[0]):
        mode = "general"
        # support loss is keyed on *old-weight* tightness, which decreased
        # edges forfeit too — fold them into the root candidates
        dec_s, dec_d, dec_wold, _ = updates.decreased
        changed = (
            np.concatenate([worsened[0], dec_s]),
            np.concatenate([worsened[1], dec_d]),
            np.concatenate([worsened[2], dec_wold]),
        )
        aff = affected_vertices(graph, d, changed, source)
        affected_count = int(aff.sum())
        if affected_count:
            d[aff] = INF
            # boundary seeding: every edge from the intact region into the
            # hole, in one vectorized pass over the graph's own arrays
            srcs, dsts, w = cached_row_ids(graph), graph.indices, graph.weights
            into = aff[dsts] & ~aff[srcs] & np.isfinite(d[srcs])
            if into.any():
                heads = dsts[into]
                np.minimum.at(d, heads, d[srcs[into]] + w[into])
                dirty[heads] = True

    # -- improvement seeding (inserts / decreases) --------------------------
    imp_src, imp_dst, imp_w = updates.improving_edges()
    if len(imp_src):
        if mode == "noop":
            mode = "decrease-only"
        ok = np.isfinite(d[imp_src])
        s, t, w = imp_src[ok], imp_dst[ok], imp_w[ok]
        cand = d[s] + w
        better = cand < d[t]
        if better.any():
            np.minimum.at(d, t[better], cand[better])
            dirty[t[better]] = True

    seed_count = int(dirty.sum())

    # -- repair waves: one run of the Δ-bucket loop from the dirty set ------
    if seed_count:
        seeds = np.flatnonzero(dirty & np.isfinite(d))
        work = run_buckets(cached_split(graph, delta), d, seeds, delta)

    if validate:
        oracle = fused_delta_stepping(graph, source, delta).distances
        if not np.array_equal(d, oracle):
            bad = int(np.nonzero(d != oracle)[0][0])
            raise RuntimeError(
                f"incremental repair diverged from recompute at vertex {bad}: "
                f"{d[bad]} != {oracle[bad]}"
            )

    return RepairResult(
        distances=d,
        source=source,
        delta=float(delta),
        mode=mode,
        affected=affected_count,
        seeds=seed_count,
        buckets=work["steps"],
        phases=work["phases"],
        relaxations=work["relaxations"],
        updates=work["updates"],
    )
