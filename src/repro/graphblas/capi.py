"""C-flavoured GraphBLAS facade: ``GrB_*`` functions returning ``GrB_Info``.

The paper implements delta-stepping against the GraphBLAS *C* API
(Fig. 2).  This module reproduces that calling convention on top of the
Pythonic layer so the listing transliterates statement-for-statement:

- every function returns an :class:`~repro.graphblas.info.Info` code
  instead of raising (exceptions are caught and mapped);
- output parameters (``GrB_Vector *w``, ``GrB_Index *n``) become
  :class:`Ref` cells;
- ``GrB_NULL`` is :data:`GrB_NULL` (``None``);
- the predefined objects carry their C names (``GrB_FP64``,
  ``GrB_MIN_FP64``, ``GrB_LT_FP64``, ``GrB_IDENTITY_FP64``, ...).

Example (paper Fig. 2, line 43)::

    // GrB_vxm(tReq, GrB_NULL, GrB_NULL, min_plus_sring, tmasked, Al, clear_desc);
    info = GrB_vxm(tReq, GrB_NULL, GrB_NULL, MIN_PLUS, tmasked, Al, clear_desc)
"""

from __future__ import annotations

import numpy as np

from . import operations as ops
from .binaryop import (
    EQ as GrB_EQ,
    FIRST as GrB_FIRST,
    GE as GrB_GE,
    GT as GrB_GT,
    LAND as GrB_LAND_op,
    LE as GrB_LE,
    LOR as GrB_LOR_op,
    LT as GrB_LT,
    MAX as GrB_MAX_op,
    MIN as GrB_MIN_op,
    PLUS as GrB_PLUS_op,
    SECOND as GrB_SECOND,
    TIMES as GrB_TIMES_op,
)
from .descriptor import NULL_DESC, REPLACE, REPLACE_STRUCTURE
from .info import Info, NoValue, info_of
from .matrix import Matrix
from .monoid import MIN_MONOID, PLUS_MONOID
from .semiring import MIN_PLUS, PLUS_TIMES
from .types import BOOL, FP32, FP64, INT32, INT64, UINT64
from .unaryop import IDENTITY
from .vector import Vector

__all__ = [
    "Ref",
    "GrB_NULL",
    "GrB_ALL",
    # types
    "GrB_BOOL",
    "GrB_INT32",
    "GrB_INT64",
    "GrB_UINT64",
    "GrB_FP32",
    "GrB_FP64",
    # predefined operators (C names)
    "GrB_IDENTITY_FP64",
    "GrB_IDENTITY_BOOL",
    "GrB_MIN_FP64",
    "GrB_MAX_FP64",
    "GrB_PLUS_FP64",
    "GrB_TIMES_FP64",
    "GrB_LT_FP64",
    "GrB_LE_FP64",
    "GrB_GT_FP64",
    "GrB_GE_FP64",
    "GrB_EQ_FP64",
    "GrB_LOR",
    "GrB_LAND",
    "GrB_FIRST_FP64",
    "GrB_SECOND_FP64",
    "GrB_MIN_MONOID_FP64",
    "GrB_PLUS_MONOID_FP64",
    "GrB_MIN_PLUS_SEMIRING_FP64",
    "GrB_PLUS_TIMES_SEMIRING_FP64",
    "GrB_DESC_R",
    "GrB_DESC_RS",
    # functions
    "GrB_Vector_new",
    "GrB_Matrix_new",
    "GrB_Vector_dup",
    "GrB_Matrix_dup",
    "GrB_Vector_clear",
    "GrB_Matrix_clear",
    "GrB_Vector_nvals",
    "GrB_Matrix_nvals",
    "GrB_Vector_size",
    "GrB_Matrix_nrows",
    "GrB_Matrix_ncols",
    "GrB_Vector_setElement",
    "GrB_Matrix_setElement",
    "GrB_Vector_extractElement",
    "GrB_Matrix_extractElement",
    "GrB_Vector_removeElement",
    "GrB_Vector_build",
    "GrB_Matrix_build",
    "GrB_Vector_extractTuples",
    "GrB_Matrix_extractTuples",
    "GrB_apply",
    "GrB_Vector_apply",
    "GrB_Matrix_apply",
    "GrB_eWiseAdd",
    "GrB_eWiseMult",
    "GxB_eWiseUnion",
    "GrB_vxm",
    "GrB_mxv",
    "GrB_mxm",
    "GrB_reduce",
    "GrB_select",
    "GrB_extract",
    "GrB_assign",
    "GrB_transpose",
    "GrB_wait",
    "GrB_free",
]


class Ref:
    """Emulates a C output pointer (``GrB_Vector *``, ``GrB_Index *``)."""

    __slots__ = ("value",)

    def __init__(self, value=None):
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Ref({self.value!r})"


#: ``GrB_NULL`` — pass where the C API accepts a NULL mask/accum/descriptor.
GrB_NULL = None
#: ``GrB_ALL`` — pass where the C API accepts the all-indices marker.
GrB_ALL = None

GrB_BOOL = BOOL
GrB_INT32 = INT32
GrB_INT64 = INT64
GrB_UINT64 = UINT64
GrB_FP32 = FP32
GrB_FP64 = FP64

GrB_IDENTITY_FP64 = IDENTITY
GrB_IDENTITY_BOOL = IDENTITY
GrB_MIN_FP64 = GrB_MIN_op
GrB_MAX_FP64 = GrB_MAX_op
GrB_PLUS_FP64 = GrB_PLUS_op
GrB_TIMES_FP64 = GrB_TIMES_op
GrB_LT_FP64 = GrB_LT
GrB_LE_FP64 = GrB_LE
GrB_GT_FP64 = GrB_GT
GrB_GE_FP64 = GrB_GE
GrB_EQ_FP64 = GrB_EQ
GrB_LOR = GrB_LOR_op
GrB_LAND = GrB_LAND_op
GrB_FIRST_FP64 = GrB_FIRST
GrB_SECOND_FP64 = GrB_SECOND
GrB_MIN_MONOID_FP64 = MIN_MONOID
GrB_PLUS_MONOID_FP64 = PLUS_MONOID
GrB_MIN_PLUS_SEMIRING_FP64 = MIN_PLUS
GrB_PLUS_TIMES_SEMIRING_FP64 = PLUS_TIMES
#: descriptor with OUTP=REPLACE — the paper's ``clear_desc``
GrB_DESC_R = REPLACE
#: OUTP=REPLACE with a structural mask (stored entries count, whatever
#: their value)
GrB_DESC_RS = REPLACE_STRUCTURE


def _guard(fn):
    """Run *fn*, translating exceptions into Info codes."""
    try:
        fn()
    except Exception as exc:  # noqa: BLE001 - the C API reports, never raises
        return info_of(exc)
    return Info.SUCCESS


# -- object lifetime ---------------------------------------------------------

def GrB_Vector_new(ref: Ref, dtype, size: int) -> Info:
    return _guard(lambda: setattr(ref, "value", Vector.new(dtype, size)))


def GrB_Matrix_new(ref: Ref, dtype, nrows: int, ncols: int) -> Info:
    return _guard(lambda: setattr(ref, "value", Matrix.new(dtype, nrows, ncols)))


def GrB_Vector_dup(ref: Ref, v: Vector) -> Info:
    return _guard(lambda: setattr(ref, "value", v.dup()))


def GrB_Matrix_dup(ref: Ref, a: Matrix) -> Info:
    return _guard(lambda: setattr(ref, "value", a.dup()))


def GrB_Vector_clear(v: Vector) -> Info:
    return _guard(v.clear)


def GrB_Matrix_clear(a: Matrix) -> Info:
    return _guard(a.clear)


def GrB_free(_obj) -> Info:
    """No-op — Python objects are garbage collected."""
    return Info.SUCCESS


def GrB_wait(_obj=None, _mode=None) -> Info:
    """No-op — this implementation executes eagerly."""
    return Info.SUCCESS


# -- introspection -------------------------------------------------------------

def GrB_Vector_nvals(ref: Ref, v: Vector) -> Info:
    return _guard(lambda: setattr(ref, "value", v.nvals))


def GrB_Matrix_nvals(ref: Ref, a: Matrix) -> Info:
    return _guard(lambda: setattr(ref, "value", a.nvals))


def GrB_Vector_size(ref: Ref, v: Vector) -> Info:
    return _guard(lambda: setattr(ref, "value", v.size))


def GrB_Matrix_nrows(ref: Ref, a: Matrix) -> Info:
    return _guard(lambda: setattr(ref, "value", a.nrows))


def GrB_Matrix_ncols(ref: Ref, a: Matrix) -> Info:
    return _guard(lambda: setattr(ref, "value", a.ncols))


# -- element access -------------------------------------------------------------

def GrB_Vector_setElement(v: Vector, value, index: int) -> Info:
    return _guard(lambda: v.set_element(index, value))


def GrB_Matrix_setElement(a: Matrix, value, i: int, j: int) -> Info:
    return _guard(lambda: a.set_element(i, j, value))


def GrB_Vector_extractElement(ref: Ref, v: Vector, index: int) -> Info:
    try:
        ref.value = v.extract_element(index)
    except NoValue:
        return Info.NO_VALUE
    except Exception as exc:  # noqa: BLE001
        return info_of(exc)
    return Info.SUCCESS


def GrB_Matrix_extractElement(ref: Ref, a: Matrix, i: int, j: int) -> Info:
    try:
        ref.value = a.extract_element(i, j)
    except NoValue:
        return Info.NO_VALUE
    except Exception as exc:  # noqa: BLE001
        return info_of(exc)
    return Info.SUCCESS


def GrB_Vector_removeElement(v: Vector, index: int) -> Info:
    return _guard(lambda: v.remove_element(index))


# -- build / extractTuples ------------------------------------------------------

def GrB_Vector_build(v: Vector, indices, values, n: int, dup_op) -> Info:
    def run():
        built = Vector.from_coo(
            np.asarray(indices)[:n], np.asarray(values)[:n], v.size, dtype=v.dtype, dup_op=dup_op
        )
        v._set_data(built._indices, built._values)

    return _guard(run)


def GrB_Matrix_build(a: Matrix, rows, cols, values, n: int, dup_op) -> Info:
    def run():
        built = Matrix.from_coo(
            np.asarray(rows)[:n],
            np.asarray(cols)[:n],
            np.asarray(values)[:n],
            a.nrows,
            a.ncols,
            dtype=a.dtype,
            dup_op=dup_op,
        )
        a._indptr = built._indptr
        a._col_indices = built._col_indices
        a._values = built._values
        a._invalidate()

    return _guard(run)


def GrB_Vector_extractTuples(indices_ref: Ref, values_ref: Ref, n_ref: Ref, v: Vector) -> Info:
    def run():
        idx, vals = v.to_coo()
        indices_ref.value = idx
        values_ref.value = vals
        n_ref.value = len(idx)

    return _guard(run)


def GrB_Matrix_extractTuples(rows_ref: Ref, cols_ref: Ref, values_ref: Ref, n_ref: Ref, a: Matrix) -> Info:
    def run():
        r, c, vals = a.to_coo()
        rows_ref.value = r
        cols_ref.value = c
        values_ref.value = vals
        n_ref.value = len(r)

    return _guard(run)


# -- operations ---------------------------------------------------------------------

def GrB_Vector_apply(w, mask, accum, op, u, desc=GrB_NULL) -> Info:
    return _guard(lambda: ops.apply(w, op, u, mask=mask, accum=accum, desc=desc or NULL_DESC))


def GrB_Matrix_apply(c, mask, accum, op, a, desc=GrB_NULL) -> Info:
    return _guard(lambda: ops.apply(c, op, a, mask=mask, accum=accum, desc=desc or NULL_DESC))


def GrB_apply(out, mask, accum, op, a, desc=GrB_NULL) -> Info:
    """Polymorphic ``GrB_apply`` (the C API's ``_Generic`` dispatch)."""
    return _guard(lambda: ops.apply(out, op, a, mask=mask, accum=accum, desc=desc or NULL_DESC))


def GrB_eWiseAdd(out, mask, accum, op, a, b, desc=GrB_NULL) -> Info:
    return _guard(lambda: ops.ewise_add(out, op, a, b, mask=mask, accum=accum, desc=desc or NULL_DESC))


def GrB_eWiseMult(out, mask, accum, op, a, b, desc=GrB_NULL) -> Info:
    return _guard(lambda: ops.ewise_mult(out, op, a, b, mask=mask, accum=accum, desc=desc or NULL_DESC))


def GxB_eWiseUnion(out, mask, accum, op, a, alpha, b, beta, desc=GrB_NULL) -> Info:
    """SuiteSparse's ``GxB_eWiseUnion``: *alpha*/*beta* stand in for the
    operand missing an entry (see :func:`repro.graphblas.operations.ewise_union`)."""
    return _guard(
        lambda: ops.ewise_union(out, op, a, alpha, b, beta, mask=mask, accum=accum, desc=desc or NULL_DESC)
    )


def GrB_vxm(w, mask, accum, semiring, u, a, desc=GrB_NULL) -> Info:
    return _guard(lambda: ops.vxm(w, semiring, u, a, mask=mask, accum=accum, desc=desc or NULL_DESC))


def GrB_mxv(w, mask, accum, semiring, a, u, desc=GrB_NULL) -> Info:
    return _guard(lambda: ops.mxv(w, semiring, a, u, mask=mask, accum=accum, desc=desc or NULL_DESC))


def GrB_mxm(c, mask, accum, semiring, a, b, desc=GrB_NULL) -> Info:
    return _guard(lambda: ops.mxm(c, semiring, a, b, mask=mask, accum=accum, desc=desc or NULL_DESC))


def GrB_reduce(out_ref_or_vec, mask_or_accum, monoid, obj, desc=GrB_NULL) -> Info:
    """Polymorphic reduce.

    - ``GrB_reduce(Ref, accum_or_None, monoid, vector_or_matrix)`` → scalar
    - ``GrB_reduce(Vector, mask, monoid, matrix, desc)`` → per-row vector
    """
    if isinstance(out_ref_or_vec, Ref):
        def run_scalar():
            if isinstance(obj, Vector):
                out_ref_or_vec.value = ops.reduce_vector_to_scalar(monoid, obj)
            else:
                out_ref_or_vec.value = ops.reduce_matrix_to_scalar(monoid, obj)

        return _guard(run_scalar)
    return _guard(
        lambda: ops.reduce_matrix_to_vector(
            out_ref_or_vec, monoid, obj, mask=mask_or_accum, desc=desc or NULL_DESC
        )
    )


def GrB_select(out, mask, accum, op, a, thunk, desc=GrB_NULL) -> Info:
    return _guard(lambda: ops.select(out, op, a, thunk, mask=mask, accum=accum, desc=desc or NULL_DESC))


def GrB_extract(out, mask, accum, a, indices, *args) -> Info:
    """Polymorphic extract: vector form ``(w, m, acc, u, I[, desc])`` or
    matrix form ``(c, m, acc, A, I, J[, desc])``."""
    if isinstance(a, Vector):
        desc = args[0] if args else GrB_NULL
        return _guard(
            lambda: ops.extract_subvector(out, a, indices, mask=mask, accum=accum, desc=desc or NULL_DESC)
        )
    cols = args[0] if args else None
    desc = args[1] if len(args) > 1 else GrB_NULL
    return _guard(
        lambda: ops.extract_submatrix(out, a, indices, cols, mask=mask, accum=accum, desc=desc or NULL_DESC)
    )


def GrB_assign(w, mask, accum, value_or_vec, indices, _n=None, desc=GrB_NULL) -> Info:
    """Polymorphic assign on vectors (scalar or vector payload)."""
    if isinstance(value_or_vec, Vector):
        return _guard(
            lambda: ops.assign_vector(w, value_or_vec, indices, mask=mask, accum=accum, desc=desc or NULL_DESC)
        )
    return _guard(
        lambda: ops.assign_scalar_vector(w, value_or_vec, indices, mask=mask, accum=accum, desc=desc or NULL_DESC)
    )


def GrB_transpose(c, mask, accum, a, desc=GrB_NULL) -> Info:
    return _guard(lambda: ops.transpose(c, a, mask=mask, accum=accum, desc=desc or NULL_DESC))
