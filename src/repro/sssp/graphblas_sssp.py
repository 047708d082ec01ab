"""Linear-algebraic delta-stepping on the GraphBLAS API (the *unfused* form).

This is the output of the paper's translation (Fig. 1 left column),
implemented exactly as the SuiteSparse listing in Fig. 2 structures it —
every algorithmic step is its own GraphBLAS call, every filter costs two
``apply`` calls (predicate + masked identity), every temporary is a real
sparse object.  That is the point: this version is the *unfused* baseline
of Fig. 3, and its call-by-call shape is what the fused implementation
(:mod:`repro.sssp.fused`) collapses.

Correspondence to Fig. 1 (left) / Fig. 2:

====================================  ======================================
Linear algebra                        Here
====================================  ======================================
``A_L = A ∘ (0 < A ≤ Δ)``             two ``apply`` calls on the matrix
``A_H = A ∘ (A > Δ)``                 two ``apply`` calls on the matrix
``t = ∞; t[s] = 0``                   sparse ``t`` with only ``s`` stored
                                      (unstored ⇒ ∞, as in Fig. 2 line 8)
``while (t ≥ iΔ) ≠ 0``                filter + ``nvals`` (Fig. 2 ll. 27-30)
``tBi = (iΔ ≤ t < (i+1)Δ)``           ``apply`` with ``delta_irange``
``tReq = A_Lᵀ (min.+) (t ∘ tBi)``     masked identity ``apply`` + ``vxm``
``S = (S + tBi) > 0``                 ``eWiseAdd`` with LOR
``tBi = (iΔ ≤ tReq < (i+1)Δ)
        ∘ (tReq < t)``                ``eWiseUnion`` LT (unstored ``t`` is
                                      ∞) under tReq's **structural** mask,
                                      + ``apply``
``t = min(t, tReq)``                  ``eWiseAdd`` with MIN
====================================  ======================================

One departure from Fig. 2: its ``eWiseAdd(LT, tReq, t)`` under tReq's
*value* mask drops a stored ``tReq`` of ``0.0``, and eWiseAdd copies an
entry only ``tReq`` holds through unchanged, so a ``0.0`` there casts to
false.  A vertex first reached at distance 0 then never re-enters its
bucket, and everything behind it stays at ∞.  Here the mask is
structural and ``eWiseUnion`` fills the missing ``t`` with ∞, so
``tReq < t`` is a comparison everywhere.

A truthy ``recorder=`` (:mod:`repro.obs`) receives each group of calls
as a span labelled by its §VI.C stage (``filter:AL``, ``vxm:light`` …).
"""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np

from ..graphblas import operations as ops
from ..graphblas.binaryop import LOR, LT, MIN
from ..graphblas.descriptor import REPLACE, REPLACE_STRUCTURE
from ..graphblas.matrix import Matrix
from ..graphblas.monoid import MIN_MONOID
from ..graphblas.semiring import MIN_PLUS
from ..graphblas.types import BOOL, FP64
from ..graphblas.unaryop import IDENTITY, range_filter, threshold_geq, threshold_gt, threshold_leq
from ..graphblas.vector import Vector
from ..graphs.graph import Graph
from .result import INF, SSSPResult

__all__ = ["graphblas_delta_stepping", "build_light_heavy_matrices"]

#: the disabled-recorder stage context (reentrant, stateless)
_NO_SPAN = nullcontext()


def build_light_heavy_matrices(A: Matrix, delta: float, recorder=None):
    """``A_L = A ∘ (0 < A ≤ Δ)`` and ``A_H = A ∘ (A > Δ)``.

    Each split is two ``GrB_apply`` calls — predicate, then masked
    identity — exactly as Fig. 2 lines 15-21 (the §VI.C hotspot: these
    four whole-matrix passes are 35-40% of sequential runtime).
    """
    n, m = A.nrows, A.ncols
    with recorder.span("filter:AL") if recorder else _NO_SPAN:
        Ab = Matrix.new(BOOL, n, m)
        ops.apply(Ab, threshold_leq(delta), A)  # A .<= delta
        Al = Matrix.new(FP64, n, m)
        ops.apply(Al, IDENTITY, A, mask=Ab)  # A .* (A .<= delta)
    with recorder.span("filter:AH") if recorder else _NO_SPAN:
        ops.apply(Ab, threshold_gt(delta), A)  # A .> delta
        Ah = Matrix.new(FP64, n, m)
        ops.apply(Ah, IDENTITY, A, mask=Ab)  # A .* (A .> delta)
    return Al, Ah


def graphblas_delta_stepping(
    graph: Graph,
    source: int,
    delta: float = 1.0,
    skip_empty_buckets: bool = True,
    recorder=None,
) -> SSSPResult:
    """Unfused GraphBLAS delta-stepping (the Fig. 3 baseline).

    Parameters
    ----------
    skip_empty_buckets:
        When True, ``i`` jumps to the next non-empty bucket instead of
        incrementing by one (identical results; relevant only for
        non-unit weights where buckets can be sparse).
    recorder:
        A truthy :class:`repro.obs.Recorder` receives one span per stage
        occurrence (the §VI.C breakdown); recording never changes the
        result.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    n = graph.num_vertices
    if not 0 <= source < n:
        raise IndexError(f"source {source} out of range [0, {n})")

    A = graph.to_matrix()
    Al, Ah = build_light_heavy_matrices(A, delta, recorder)

    # t[src] = 0 — unstored entries are implicitly infinite (Fig. 2 l. 8)
    t = Vector.new(FP64, n)
    t.set_element(source, 0.0)

    tB = Vector.new(BOOL, n)
    tmasked = Vector.new(FP64, n)
    tReq = Vector.new(FP64, n)
    tless = Vector.new(BOOL, n)
    s = Vector.new(BOOL, n)
    tgeq = Vector.new(BOOL, n)
    tcomp = Vector.new(FP64, n)

    counters = {"buckets": 0, "phases": 0, "relaxations": 0, "updates": 0}
    i = 0

    def active_count() -> int:
        """``(t ≥ iΔ) ≠ 0`` via filter + nvals (Fig. 2 ll. 27-30, 67-69)."""
        with recorder.span("outer:check") if recorder else _NO_SPAN:
            ops.apply(tgeq, threshold_geq(i * delta), t)
            ops.apply(tcomp, IDENTITY, t, mask=tgeq, desc=REPLACE)
        return tcomp.nvals

    while active_count() > 0:
        if skip_empty_buckets and tcomp.nvals:
            # jump to the bucket of the smallest remaining distance
            smallest = ops.reduce_vector_to_scalar(MIN_MONOID, tcomp)
            i = max(i, int(smallest // delta))
        counters["buckets"] += 1
        with recorder.span("vector:clear") if recorder else _NO_SPAN:
            s.clear()  # s = 0
        with recorder.span("filter:bucket") if recorder else _NO_SPAN:
            # tBi = (iΔ .<= t .< (i+1)Δ)
            ops.apply(tB, range_filter(i * delta, (i + 1) * delta), t, desc=REPLACE)
            # t .* tBi
            ops.apply(tmasked, IDENTITY, t, mask=tB, desc=REPLACE)

        while tmasked.nvals > 0:
            counters["phases"] += 1
            with recorder.span("vxm:light") if recorder else _NO_SPAN:
                # tReq = A_L' (min.+) (t .* tBi)
                ops.vxm(tReq, MIN_PLUS, tmasked, Al, desc=REPLACE)
            counters["relaxations"] += tReq.nvals
            with recorder.span("vector:S") if recorder else _NO_SPAN:
                # s = s + tBi
                ops.ewise_add(s, LOR, s, tB)
            with recorder.span("filter:reenter") if recorder else _NO_SPAN:
                # tBi = (iΔ .<= tReq .< (i+1)Δ) .* (tReq .< t)
                # tReq as structural output mask, unstored t read as ∞
                ops.ewise_union(tless, LT, tReq, INF, t, INF, mask=tReq, desc=REPLACE_STRUCTURE)
                ops.apply(tB, range_filter(i * delta, (i + 1) * delta), tReq, mask=tless, desc=REPLACE)
            counters["updates"] += int(np.count_nonzero(tless.values))
            with recorder.span("vector:minmerge") if recorder else _NO_SPAN:
                # t = min(t, tReq)
                ops.ewise_add(t, MIN, t, tReq)
            with recorder.span("filter:bucket") if recorder else _NO_SPAN:
                ops.apply(tmasked, IDENTITY, t, mask=tB, desc=REPLACE)

        with recorder.span("vxm:heavy") if recorder else _NO_SPAN:
            # tReq = A_H' (min.+) (t .* s)
            ops.apply(tmasked, IDENTITY, t, mask=s, desc=REPLACE)
            ops.vxm(tReq, MIN_PLUS, tmasked, Ah, desc=REPLACE)
        counters["relaxations"] += tReq.nvals
        counters["phases"] += 1
        with recorder.span("vector:minmerge") if recorder else _NO_SPAN:
            # t = min(t, tReq)
            ops.ewise_add(t, MIN, t, tReq)
        i += 1

    distances = np.full(n, INF, dtype=np.float64)
    idx, vals = t.to_coo()
    distances[idx] = vals
    return SSSPResult(
        distances=distances,
        source=source,
        delta=delta,
        method="graphblas-unfused",
        buckets_processed=counters["buckets"],
        phases=counters["phases"],
        relaxations=counters["relaxations"],
        updates=counters["updates"],
    )
