"""Line-by-line transliteration of the paper's Fig. 2 SuiteSparse listing.

Every statement below carries the corresponding C line as a comment; the
only deviations are Python syntax (``Ref`` cells for output pointers) and
the termination-of-unreachable-graphs guard the C code gets for free from
its sparse ``t``.  Functionally identical to
:func:`repro.sssp.graphblas_sssp.graphblas_delta_stepping` — the
equivalence test in ``tests/sssp/test_capi_sssp.py`` asserts it — but
written against :mod:`repro.graphblas.capi` to demonstrate that the C API
surface is sufficient, pitfalls included.
"""

from __future__ import annotations

import numpy as np

from ..graphblas.capi import (
    GrB_DESC_R,
    GrB_DESC_RS,
    GrB_FP64,
    GrB_BOOL,
    GrB_IDENTITY_BOOL,
    GrB_IDENTITY_FP64,
    GrB_LOR,
    GrB_LT_FP64,
    GrB_MIN_FP64,
    GrB_MIN_PLUS_SEMIRING_FP64,
    GrB_NULL,
    GrB_Matrix_new,
    GrB_Vector_apply,
    GrB_Vector_clear,
    GrB_Vector_new,
    GrB_Vector_nvals,
    GrB_Vector_setElement,
    GrB_apply,
    GrB_eWiseAdd,
    GrB_vxm,
    GxB_eWiseUnion,
    Info,
    Ref,
)
from ..graphblas.matrix import Matrix
from ..graphblas.unaryop import UnaryOp, range_filter, threshold_geq, threshold_gt, threshold_leq
from ..graphs.graph import Graph
from .result import INF, SSSPResult

__all__ = ["capi_delta_stepping"]


class GrBCallFailed(RuntimeError):
    """A GrB_* call returned a non-SUCCESS Info code."""


def _ok(info: Info) -> None:
    if info != Info.SUCCESS:
        raise GrBCallFailed(f"GraphBLAS call failed: {info!r}")


def capi_delta_stepping(graph: Graph, source: int, delta: float = 1.0) -> SSSPResult:
    """``sssp_delta_step`` from Fig. 2, transliterated.

    Increments ``i`` by exactly one per outer iteration, as the listing
    does (fine for the paper's unit-weight/Δ=1 runs; for sparse weighted
    bucket ranges prefer the ``skip_empty_buckets`` option of the Pythonic
    version).
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    A = graph.to_matrix()
    n, m = A.nrows, A.ncols
    src = source
    if not 0 <= src < n:
        raise IndexError(f"source {src} out of range [0, {n})")

    # // Global scalars: delta = d
    d = float(delta)
    # // Define operators, scalar, vectors, and matrices
    delta_leq: UnaryOp = threshold_leq(d)
    delta_gt: UnaryOp = threshold_gt(d)
    clear_desc = GrB_DESC_R

    t_ref, tB_ref, tmasked_ref, tReq_ref = Ref(), Ref(), Ref(), Ref()
    tless_ref, s_ref, tgeq_ref, tcomp_ref = Ref(), Ref(), Ref(), Ref()
    _ok(GrB_Vector_new(t_ref, GrB_FP64, n))
    _ok(GrB_Vector_new(tB_ref, GrB_BOOL, n))
    _ok(GrB_Vector_new(tmasked_ref, GrB_FP64, n))
    _ok(GrB_Vector_new(tReq_ref, GrB_FP64, n))
    _ok(GrB_Vector_new(tless_ref, GrB_BOOL, n))
    _ok(GrB_Vector_new(s_ref, GrB_BOOL, n))
    _ok(GrB_Vector_new(tgeq_ref, GrB_BOOL, n))
    _ok(GrB_Vector_new(tcomp_ref, GrB_FP64, n))
    t, tB, tmasked, tReq = t_ref.value, tB_ref.value, tmasked_ref.value, tReq_ref.value
    tless, s, tgeq, tcomp = tless_ref.value, s_ref.value, tgeq_ref.value, tcomp_ref.value

    # // t[src] = 0
    _ok(GrB_Vector_setElement(t, 0, src))

    # // Create A_L and A_H based on delta:
    Ah_ref, Al_ref, Ab_ref = Ref(), Ref(), Ref()
    _ok(GrB_Matrix_new(Ah_ref, GrB_FP64, n, m))
    _ok(GrB_Matrix_new(Al_ref, GrB_FP64, n, m))
    _ok(GrB_Matrix_new(Ab_ref, GrB_BOOL, n, m))
    Ah: Matrix = Ah_ref.value
    Al: Matrix = Al_ref.value
    Ab: Matrix = Ab_ref.value

    # // A_L = A .* (A .<= delta)
    _ok(GrB_apply(Ab, GrB_NULL, GrB_NULL, delta_leq, A, GrB_NULL))
    _ok(GrB_apply(Al, Ab, GrB_NULL, GrB_IDENTITY_FP64, A, GrB_NULL))

    # // A_H = A .* (A .> delta)
    _ok(GrB_apply(Ab, GrB_NULL, GrB_NULL, delta_gt, A, GrB_NULL))
    _ok(GrB_apply(Ah, Ab, GrB_NULL, GrB_IDENTITY_FP64, A, GrB_NULL))

    # // init i = 0
    i_global = 0
    buckets = phases = relaxations = 0

    # // Outer loop: while (t .>= i*delta) != 0 do
    delta_igeq = threshold_geq(i_global * d)
    _ok(GrB_Vector_apply(tgeq, GrB_NULL, GrB_NULL, delta_igeq, t, GrB_NULL))
    _ok(GrB_Vector_apply(tcomp, tgeq, GrB_NULL, GrB_IDENTITY_BOOL, t, GrB_NULL))
    tcomp_size = Ref()
    _ok(GrB_Vector_nvals(tcomp_size, tcomp))
    while tcomp_size.value > 0:
        buckets += 1
        # // s = 0
        _ok(GrB_Vector_clear(s))

        # // tBi = (i*delta .<= t .< (i+1)*delta)
        delta_irange = range_filter(i_global * d, (i_global + 1) * d)
        _ok(GrB_Vector_apply(tB, GrB_NULL, GrB_NULL, delta_irange, t, clear_desc))
        # // t .* tBi
        _ok(GrB_Vector_apply(tmasked, tB, GrB_NULL, GrB_IDENTITY_FP64, t, clear_desc))

        # // Inner loop: while tBi != 0 do
        tm_size = Ref()
        _ok(GrB_Vector_nvals(tm_size, tmasked))
        while tm_size.value > 0:
            phases += 1
            # // tReq = A_L' (min.+) (t .* tBi)
            _ok(GrB_vxm(tReq, GrB_NULL, GrB_NULL, GrB_MIN_PLUS_SEMIRING_FP64, tmasked, Al, clear_desc))
            relaxations += tReq.nvals
            # // s = s + tBi
            _ok(GrB_eWiseAdd(s, GrB_NULL, GrB_NULL, GrB_LOR, s, tB, GrB_NULL))

            # // tBi = (i*delta .<= tReq .< (i+1)*delta) .* (tReq .< t)
            # (departs from Fig. 2: structural mask, unstored t read as ∞)
            _ok(GxB_eWiseUnion(tless, tReq, GrB_NULL, GrB_LT_FP64, tReq, INF, t, INF, GrB_DESC_RS))
            _ok(GrB_Vector_apply(tB, tless, GrB_NULL, delta_irange, tReq, clear_desc))

            # // t = min(t, tReq)
            _ok(GrB_eWiseAdd(t, GrB_NULL, GrB_NULL, GrB_MIN_FP64, t, tReq, GrB_NULL))

            _ok(GrB_Vector_apply(tmasked, tB, GrB_NULL, GrB_IDENTITY_FP64, t, clear_desc))
            _ok(GrB_Vector_nvals(tm_size, tmasked))

        # // tReq = A_H' (min.+) (t .* s)
        _ok(GrB_Vector_apply(tmasked, s, GrB_NULL, GrB_IDENTITY_FP64, t, clear_desc))
        _ok(GrB_vxm(tReq, GrB_NULL, GrB_NULL, GrB_MIN_PLUS_SEMIRING_FP64, tmasked, Ah, clear_desc))
        relaxations += tReq.nvals
        phases += 1

        # // t = min(t, tReq)
        _ok(GrB_eWiseAdd(t, GrB_NULL, GrB_NULL, GrB_MIN_FP64, t, tReq, GrB_NULL))

        # // i = i+1
        i_global += 1
        delta_igeq = threshold_geq(i_global * d)
        _ok(GrB_apply(tgeq, GrB_NULL, GrB_NULL, delta_igeq, t, clear_desc))
        _ok(GrB_apply(tcomp, tgeq, GrB_NULL, GrB_IDENTITY_BOOL, t, clear_desc))
        _ok(GrB_Vector_nvals(tcomp_size, tcomp))

    # // Set the return paths
    distances = np.full(n, INF, dtype=np.float64)
    idx, vals = t.to_coo()
    distances[idx] = vals
    return SSSPResult(
        distances=distances,
        source=src,
        delta=d,
        method="graphblas-capi",
        buckets_processed=buckets,
        phases=phases,
        relaxations=relaxations,
    )
