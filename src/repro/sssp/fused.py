"""Fused delta-stepping: the paper's direct-C implementation, in C and in NumPy.

The paper's fastest sequential version (§VI.B) abandons per-operation
GraphBLAS calls and fuses:

1. **Hadamard + vxm** — ``tReq = A_Lᵀ (min.+) (t ∘ tBi)`` becomes one
   kernel: gather the CSR rows of the frontier, add the frontier's
   tentative distances, min-reduce by target.  No ``t ∘ tBi`` temporary,
   no sparse-vector materialization of ``tReq``.
2. **The vector triple** — computing ``tBi`` (re-entrants), ``S``
   (settled set) and ``t`` (min-merge) in one pass over the relaxation
   candidates instead of three full-vector operations with temporaries.

On top of Fig. 2's structure this removes every intermediate sparse
object from the hot loop.  The primitives themselves live in
:mod:`repro.kernels` and are shared by every stepper in the repo:

- the per-target min runs on either the ``argsort`` kernel (the seed's
  sort + ``reduceat``) or the O(m) dense ``scatter`` kernel, picked by
  wave density or pinned via ``kernel=`` (spec spelling:
  ``"delta(kernel=scatter)"``);
- all wave temporaries come out of a reusable
  :class:`~repro.kernels.RelaxWorkspace` arena (one per solve), so a
  steady-state phase allocates no wave-sized array;
- the outer loop walks a lazy :class:`~repro.kernels.BucketQueue`
  instead of rescanning all *n* tentative distances per bucket — the
  phase schedule (and the phase/relaxation/update counters) is
  unchanged, only the scheduling cost drops from O(n · buckets) to
  O(improvements).  (``buckets_processed`` counts only non-empty
  buckets, like the Meyer–Sanders reference; the seed's scan could
  additionally count phantom empty buckets at misrounded float
  boundaries.)

That loop, :func:`run_buckets`, is shared: the solve seeds ``{source}``
and incremental repair (:func:`repro.dynamic.repair_sssp`) seeds the
dirty set of an update batch; the service's batches are K solves.  It
has two back ends with the same distances and the same four counters:

- ``kernel="auto"`` (the default) runs it compiled, as the paper does:
  :mod:`repro.kernels.compiled` builds ``buckets.c`` with the system C
  compiler when this module is imported and calls it once per loop,
  with no NumPy dispatch per wave;
- a pinned kernel, ``fuse_relax=False`` or a truthy ``recorder=`` runs
  the NumPy loop below — also the fallback when no compiler runs
  (``CC=false``) and the oracle the compiled loop is tested against.

The light/heavy split a solve runs on is cached per graph epoch and Δ
(:func:`cached_split`), so every solve and repair on one epoch splits
once; recorded runs and ``fuse_matrix_split=False`` split afresh,
so their ``filter:*`` stages stay measured.

Both paper fusions stay independently toggleable so the fusion ablation
(``benchmarks/bench_fusion_ablation.py``) can attribute the speedup:

- ``fuse_relax=False`` materializes ``tReq``/``tless``/``tB`` as full
  dense temporaries with one pass each (the unfused op sequence, minus
  sparse-object overhead);
- ``fuse_matrix_split=False`` builds ``A_L``/``A_H`` GrB-style — boolean
  predicate pass, then masked-copy pass, per matrix (4 sweeps), instead
  of one shared-predicate pass (2 sweeps).

A truthy ``recorder=`` (:mod:`repro.obs`) receives every §VI.C stage —
``filter:*``, ``relax:*``, ``outer:check`` — as a span of that name; the
``repro profile`` stage shares are the per-label span totals.  (Stage
times come from the NumPy loop only: the compiled loop reports none.)
"""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np

from ..graphs.graph import Graph
from ..kernels import (
    BucketQueue,
    RelaxWorkspace,
    cached_row_ids,
    check_kernel,
    compiled,
    gather_candidates,
    min_by_target,
)
from ..kernels.bucketq import sort_unique
from .result import INF, SSSPResult

__all__ = [
    "cached_split",
    "fused_delta_stepping",
    "run_buckets",
    "split_csr_light_heavy",
    "build_light_csr",
    "build_heavy_csr",
]

#: shared empty frontier — the fused relax's edgeless-wave return, so the
#: hot loop never constructs a fresh empty array (``hot-loop-alloc`` rule)
_EMPTY_V = np.empty(0, dtype=np.int64)

#: the disabled-recorder stage context (reentrant, stateless)
_NO_SPAN = nullcontext()

#: ``graph.meta`` key of the ``(epoch, delta, (A_L, A_H))`` split cache
_SPLIT_KEY = "_light_heavy_split"


def _compact_csr(graph: Graph, keep: np.ndarray, values: np.ndarray | None = None):
    """Compact the kept adjacency entries into a new CSR triple.

    *values* (default: the graph's weights) supplies the kept entries'
    weights.  The row-id expansion is the per-graph cache
    (:func:`repro.kernels.cached_row_ids`) — computed once per epoch and
    shared by the light and heavy builds instead of re-expanded per call.
    """
    values = graph.weights if values is None else values
    n = graph.num_vertices
    counts = np.bincount(cached_row_ids(graph)[keep], minlength=n)
    sub_indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    return sub_indptr, graph.indices[keep], values[keep]


def split_csr_light_heavy(graph: Graph, delta: float, fused: bool = True, recorder=None):
    """Split the CSR adjacency into light (≤Δ) and heavy (>Δ) CSR triples.

    ``fused=True``: one predicate pass shared by both outputs.
    ``fused=False``: mimics the GraphBLAS call sequence — each output
    recomputes its own predicate and materializes a masked intermediate.
    Both compact by the predicate: compacting by nonzero value would drop
    zero-weight edges.
    """
    weights = graph.weights

    if fused:
        with recorder.span("filter:split") if recorder else _NO_SPAN:
            light = weights <= delta
            AL = _compact_csr(graph, light)
            AH = _compact_csr(graph, ~light)
    else:
        with recorder.span("filter:AL") if recorder else _NO_SPAN:
            pred_light = weights <= delta  # pass 1: predicate
            masked_light = np.where(pred_light, weights, 0.0)  # pass 2: Hadamard
            AL = _compact_csr(graph, pred_light, masked_light)  # pass 3: compact
        with recorder.span("filter:AH") if recorder else _NO_SPAN:
            pred_heavy = weights > delta
            masked_heavy = np.where(pred_heavy, weights, 0.0)
            AH = _compact_csr(graph, pred_heavy, masked_heavy)
    return AL, AH


def cached_split(graph: Graph, delta: float):
    """:func:`split_csr_light_heavy` of *graph* at *delta*, cached.

    One split per ``(graph.epoch, delta)`` lives under a ``_``-prefixed
    ``graph.meta`` key, so an epoch bump or :meth:`~repro.graphs.Graph.copy`
    retires it, and a new Δ replaces it (the stale split is freed first).
    A miss calls the module-global :func:`split_csr_light_heavy`, so
    run-time wrappers still count every split made.  Treat the arrays as
    read-only — every solve on this epoch shares them.
    """
    entry = graph.meta.get(_SPLIT_KEY)
    if entry is not None and entry[0] == graph.epoch and entry[1] == delta:
        return entry[2]
    del entry  # drop both references to a stale split before the build
    graph.meta.pop(_SPLIT_KEY, None)
    split = split_csr_light_heavy(graph, delta)
    graph.meta[_SPLIT_KEY] = (graph.epoch, delta, split)
    return split


def build_light_csr(graph: Graph, delta: float):
    """``A_L`` alone — one coarse task of the parallel decomposition."""
    return _compact_csr(graph, graph.weights <= delta)


def build_heavy_csr(graph: Graph, delta: float):
    """``A_H`` alone — the other coarse task."""
    return _compact_csr(graph, graph.weights > delta)


def fused_delta_stepping(
    graph: Graph,
    source: int,
    delta: float = 1.0,
    fuse_relax: bool = True,
    fuse_matrix_split: bool = True,
    kernel: str = "auto",
    workspace: RelaxWorkspace | None = None,
    recorder=None,
) -> SSSPResult:
    """Sequential fused delta-stepping (the Fig. 3 "Fused C impl." series).

    *kernel* ``auto`` runs the compiled loop when it loaded (see
    :func:`run_buckets`); ``argsort``/``scatter`` pin the NumPy loop's
    per-target min kernel (:mod:`repro.kernels.minby`).  *workspace* is
    a caller-owned buffer arena for the NumPy loop (by default each solve
    allocates its own).
    A truthy *recorder* (:mod:`repro.obs`) receives the §VI.C stages as
    trace spans plus one ``bucket`` span per non-empty bucket (index,
    frontier size, phase count) — the per-bucket timeline the stage
    totals can't show.  Recording never changes the schedule or the
    distances.
    """
    n = graph.num_vertices
    if not 0 <= source < n:
        raise IndexError(f"source {source} out of range [0, {n})")
    if delta <= 0:
        raise ValueError("delta must be positive")
    check_kernel(kernel)
    # the epoch's cached split, or a fresh one for the ablation and for
    # recorded runs, which time their own ``filter:*`` stages
    if fuse_matrix_split and not recorder:
        split = cached_split(graph, delta)
    else:
        split = split_csr_light_heavy(graph, delta, fused=fuse_matrix_split, recorder=recorder)
    t = np.full(n, INF, dtype=np.float64)
    t[source] = 0.0
    c = run_buckets(
        split, t, np.array([source], dtype=np.int64), delta, kernel, workspace,
        fuse_relax=fuse_relax, recorder=recorder,
    )
    return SSSPResult(
        distances=t,
        source=source,
        delta=delta,
        method="fused",
        buckets_processed=c["steps"],
        phases=c["phases"],
        relaxations=c["relaxations"],
        updates=c["updates"],
    )


def run_buckets(
    split, t: np.ndarray, seeds: np.ndarray, delta: float, kernel: str = "auto",
    workspace: RelaxWorkspace | None = None, fuse_relax: bool = True, recorder=None,
) -> dict[str, int]:
    """The §VI.B light/heavy bucket loop, run from *seeds* to quiescence.

    *split* is the ``(A_L, A_H)`` CSR pair and *t* the distances of its
    vertices (updated in place).  A :class:`~repro.kernels.BucketQueue`
    hands out each non-empty bucket; light phases run until it is
    quiescent, then one heavy phase relaxes its settled set.  Returns the
    stepper counters (``steps`` are buckets).

    ``kernel="auto"`` runs the compiled loop
    (:mod:`repro.kernels.compiled`) when it loaded.  A pinned kernel,
    ``fuse_relax=False`` or a truthy *recorder* runs the NumPy loop
    below, which is also the fallback and the oracle; both give the same
    distances and counters.  ``fuse_relax=False`` is the unfused
    ablation (dense full-length temporaries, one pass per op).
    """
    if kernel == "auto" and fuse_relax and not recorder:
        counters = compiled.run_buckets(split, t, seeds, delta)
        if counters is not None:
            return counters
    (ALp, ALi, ALw), (AHp, AHi, AHw) = split
    if workspace is None:
        workspace = RelaxWorkspace(len(t))
    n = len(t)
    # dense scratch for the unfused ablation only; the fused relax needs
    # no full-length temporaries at all
    in_bucket = np.zeros(n, dtype=bool) if not fuse_relax else None
    counters = {"steps": 0, "phases": 0, "relaxations": 0, "updates": 0}
    bq = BucketQueue(delta)
    bq.push(seeds, t[seeds])

    def relax_unfused(indptr, indices, weights, frontier, lo, hi, track_bucket):
        """Unfused variant: full-length dense temporaries, one op per pass
        (the op-by-op shape of Fig. 2, on dense storage)."""
        targets, dists = gather_candidates(indptr, indices, weights, frontier, t, workspace)
        if targets is None:
            return np.empty(0, dtype=np.int64)
        counters["relaxations"] += len(targets)
        # tReq materialized densely (the vxm output temporary)
        with recorder.span("relax:tReq") if recorder else _NO_SPAN:
            tReq = np.full(n, INF, dtype=np.float64)
            uts, ubest = min_by_target(targets, dists, workspace=workspace, kernel=kernel)
            tReq[uts] = ubest
        # tless = tReq < t (full-vector pass)
        with recorder.span("relax:tless") if recorder else _NO_SPAN:
            tless = tReq < t
        # tBi = (lo <= tReq < hi) ∘ tless (full-vector pass)
        with recorder.span("relax:tB") if recorder else _NO_SPAN:
            if track_bucket:
                np.logical_and(tReq >= lo, tReq < hi, out=in_bucket)
                np.logical_and(in_bucket, tless, out=in_bucket)
        # t = min(t, tReq) (full-vector pass)
        with recorder.span("relax:minmerge") if recorder else _NO_SPAN:
            counters["updates"] += int(np.count_nonzero(tless))
            np.minimum(t, tReq, out=t)
        if track_bucket:
            # improvements that left the window wait in the bucket queue;
            # a light edge (≤Δ) out of a window-i vertex can only land in
            # bucket i+1, so the hint needs no per-entry bucket index.
            # in-window ones re-relax this phase loop
            outside = tless & ~in_bucket
            bq.push_into(i + 1, np.nonzero(outside)[0])
            return np.nonzero(in_bucket)[0]
        improved_v = np.nonzero(tless)[0]
        bq.push(improved_v, t[improved_v])
        return improved_v

    # repro: hot
    def relax_fused(indptr, indices, weights, frontier, lo, hi, track_bucket):
        """Fused variant: candidates → per-target min → filtered scatter,
        one pass, no dense temporaries."""
        with (recorder.span("relax:fused", kernel=kernel, wave=int(len(frontier)))
              if recorder else _NO_SPAN):
            targets, dists = gather_candidates(indptr, indices, weights, frontier, t, workspace)
            if targets is None:
                return _EMPTY_V
            counters["relaxations"] += len(targets)
            uts, ubest = min_by_target(targets, dists, workspace=workspace, kernel=kernel)
            improved = ubest < t[uts]
            uts = uts[improved]
            ubest = ubest[improved]
            counters["updates"] += len(uts)
            t[uts] = ubest
            if track_bucket:
                # every in-window candidate is >= lo (non-negative light
                # edges out of window-i vertices), so < hi alone decides
                # re-entry, and non-re-entrants land exactly in bucket i+1
                reenter = ubest < hi
                bq.push_into(i + 1, uts[~reenter])
                return uts[reenter]
            bq.push(uts, ubest)
            return uts

    relax = relax_fused if fuse_relax else relax_unfused

    while True:
        with recorder.span("outer:check") if recorder else _NO_SPAN:
            # the lazy bucket queue hands back the next non-empty bucket
            # (and its frontier) without rescanning the distance vector
            i, frontier = bq.pop_bucket(t)
            if i is None:
                break
            lo, hi = i * delta, (i + 1) * delta
        counters["steps"] += 1
        bspan = None
        if recorder:
            p0 = counters["phases"]
            bspan = recorder.span(
                "bucket", index=int(i), frontier=int(len(frontier))
            ).__enter__()
        # the paper's S, accumulated as the union of this bucket's phase
        # frontiers — O(settled) per bucket, not an O(n) mask reset + scan
        settled_chunks = []
        while len(frontier):
            counters["phases"] += 1
            settled_chunks.append(frontier)
            frontier = relax(ALp, ALi, ALw, frontier, lo, hi, track_bucket=True)
            # vertices already settled this bucket do not re-enter the
            # frontier unless their distance actually dropped into range —
            # relax() guarantees improvement, so re-entry is correct.
        with recorder.span("filter:settled") if recorder else _NO_SPAN:
            if len(settled_chunks) == 1:
                # a phase frontier is already unique and ascending
                settled = settled_chunks[0]
            else:
                settled = sort_unique(np.concatenate(settled_chunks))
        counters["phases"] += 1
        relax(AHp, AHi, AHw, settled, lo, hi, track_bucket=False)
        if bspan is not None:
            bspan.set(phases=counters["phases"] - p0, settled=int(len(settled)))
            bspan.__exit__(None, None, None)

    return counters
