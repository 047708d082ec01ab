"""The GraphBLAS operation set.

Every public function here follows the C API calling convention
``op(out, [modifiers...], inputs..., mask=, accum=, desc=)``: the computed
pattern/values ``T`` is produced by a vectorized kernel, then written into
*out* through the accumulate→mask→replace pipeline
(:func:`repro.graphblas.mask.finalize_write`).  All functions return *out*.

Implemented operations (matching what the paper's implementations and our
extension algorithms need — which is the full working set of the C API 1.x):

========================  ====================================================
``apply``                 unary-op map over stored values (vector & matrix)
``select``                index-unary filtering (vector & matrix)
``ewise_add``             union element-wise combine (vector & matrix)
``ewise_mult``            intersection element-wise combine (vector & matrix)
``ewise_union``           union combine with fill values (``GxB_eWiseUnion``)
``vxm`` / ``mxv``         vector-matrix / matrix-vector over a semiring
``mxm``                   matrix-matrix over a semiring (masked, chunked)
``reduce_*``              monoid reductions (to vector / to scalar)
``extract_*``             subvector / submatrix extraction
``assign_*``              scalar / vector / matrix-scalar assign
``transpose``             explicit transpose with write pipeline
``kronecker``             Kronecker product over a binary op
========================  ====================================================
"""

from __future__ import annotations

import numpy as np

from .binaryop import BinaryOp
from .descriptor import NULL_DESC, Descriptor
from .info import DimensionMismatch, DomainMismatch, InvalidIndex, InvalidValue
from .mask import accum_merge, effective_mask_keys, finalize_write, masked_write
from .matrix import Matrix
from .monoid import Monoid
from .semiring import Semiring
from .sparseutil import (
    INDEX_DTYPE,
    as_index_array,
    group_reduce,
    is_sorted_unique,
    membership,
    segment_gather,
    union_merge,
)
from .types import DataType, from_dtype
from .unaryop import UnaryOp
from .vector import Vector

__all__ = [
    "apply",
    "select",
    "ewise_add",
    "ewise_mult",
    "vxm",
    "mxv",
    "mxm",
    "reduce_vector_to_scalar",
    "reduce_matrix_to_vector",
    "reduce_matrix_to_scalar",
    "extract_subvector",
    "extract_submatrix",
    "assign_scalar_vector",
    "assign_scalar_matrix",
    "assign_vector",
    "transpose",
    "kronecker",
]

#: expansion budget per mxm chunk (number of semiring multiplies in flight)
MXM_CHUNK_BUDGET = 1 << 22


def _resolve_input(a, desc: Descriptor, which: int):
    """Apply the descriptor's INPx=TRAN flag to a matrix input."""
    if isinstance(a, Matrix):
        if which == 0 and desc.transpose0:
            return a.transpose()
        if which == 1 and desc.transpose1:
            return a.transpose()
    return a


def _check_out_shape(out, template) -> None:
    if isinstance(template, Vector):
        if not isinstance(out, Vector) or out.size != template.size:
            raise DimensionMismatch(
                f"output must be a vector of size {template.size}"
            )
    else:
        if (
            not isinstance(out, Matrix)
            or out.nrows != template.nrows
            or out.ncols != template.ncols
        ):
            raise DimensionMismatch(
                f"output must be a {template.nrows}x{template.ncols} matrix"
            )


# ---------------------------------------------------------------------------
# apply / select
# ---------------------------------------------------------------------------

def apply(out, op: UnaryOp, a, mask=None, accum=None, desc: Descriptor | None = None):
    """``GrB_apply``: map every stored value of *a* through unary *op*.

    The pattern of the computed result equals the pattern of *a*; the write
    pipeline then merges it into *out*.  The paper's filters are built from
    two of these calls: one computing a Boolean predicate, a second using
    that predicate as *mask* over an ``IDENTITY`` apply so that falsified
    entries are **not stored** (§V.B).
    """
    desc = desc or NULL_DESC
    a = _resolve_input(a, desc, 0)
    _check_out_shape(out, a)
    t_keys = a._keys()
    t_vals = op(a.values)
    finalize_write(out, t_keys, t_vals, mask, accum, desc)
    return out


def select(out, op, a, thunk=None, mask=None, accum=None, desc: Descriptor | None = None):
    """``GrB_select``: keep entries of *a* passing ``op(value, i, j, thunk)``."""
    desc = desc or NULL_DESC
    a = _resolve_input(a, desc, 0)
    _check_out_shape(out, a)
    if isinstance(a, Matrix):
        rows = a.row_ids_expanded()
        cols = a.col_indices
    else:
        rows = a.indices
        cols = np.zeros(a.nvals, dtype=INDEX_DTYPE)
    keep = np.asarray(op(a.values, rows, cols, thunk), dtype=bool)
    t_keys = a._keys()[keep]
    t_vals = a.values[keep]
    finalize_write(out, t_keys, t_vals, mask, accum, desc)
    return out


# ---------------------------------------------------------------------------
# element-wise
# ---------------------------------------------------------------------------

def _ewise_add_kernel(op: BinaryOp, a, b, out_dtype: DataType):
    merged, in_a, in_b, a_pos, b_pos = union_merge(a._keys(), b._keys())
    vals = np.empty(len(merged), dtype=out_dtype.np_dtype)
    only_a = in_a & ~in_b
    only_b = in_b & ~in_a
    both = in_a & in_b
    # Union semantics (the §V.B pitfall lives here): where only one operand
    # has an entry, that value passes through *unchanged* — the operator is
    # NOT applied against an identity.
    if only_a.any():
        vals[only_a] = out_dtype.cast_array(a.values[a_pos[only_a]])
    if only_b.any():
        vals[only_b] = out_dtype.cast_array(b.values[b_pos[only_b]])
    if both.any():
        vals[both] = out_dtype.cast_array(
            op(a.values[a_pos[both]], b.values[b_pos[both]])
        )
    return merged, vals


def ewise_add(out, op, a, b, mask=None, accum=None, desc: Descriptor | None = None):
    """``GrB_eWiseAdd``: element-wise combine over the **union** of patterns.

    *op* may be a :class:`BinaryOp`, :class:`Monoid`, or :class:`Semiring`
    (the spec accepts all three; monoid/semiring contribute their binary op).
    """
    desc = desc or NULL_DESC
    a = _resolve_input(a, desc, 0)
    b = _resolve_input(b, desc, 1)
    a._check_same_shape(b, "eWiseAdd operand")
    _check_out_shape(out, a)
    binop = _as_binaryop(op)
    out_dtype = binop.result_type(a.dtype, b.dtype)
    t_keys, t_vals = _ewise_add_kernel(binop, a, b, out_dtype)
    finalize_write(out, t_keys, t_vals, mask, accum, desc)
    return out


def ewise_union(out, op, a, alpha, b, beta, mask=None, accum=None, desc: Descriptor | None = None):
    """``GxB_eWiseUnion``: :func:`ewise_add` with fill values for lone entries.

    Where only *a* holds an entry the result is ``op(a, beta)``; where
    only *b* does, ``op(alpha, b)``.  *op* is applied over the whole
    union instead of passing lone values through, so a comparison stays
    a comparison: ``eWiseUnion(LT, tReq, ∞, t, ∞)`` reads an unstored
    ``t`` as ∞.
    """
    desc = desc or NULL_DESC
    a = _resolve_input(a, desc, 0)
    b = _resolve_input(b, desc, 1)
    a._check_same_shape(b, "eWiseUnion operand")
    _check_out_shape(out, a)
    binop = _as_binaryop(op)
    merged, in_a, in_b, a_pos, b_pos = union_merge(a._keys(), b._keys())
    left = np.full(len(merged), alpha, dtype=a.values.dtype)
    left[in_a] = a.values[a_pos[in_a]]
    right = np.full(len(merged), beta, dtype=b.values.dtype)
    right[in_b] = b.values[b_pos[in_b]]
    t_vals = binop.result_type(a.dtype, b.dtype).cast_array(binop(left, right))
    finalize_write(out, merged, t_vals, mask, accum, desc)
    return out


def ewise_mult(out, op, a, b, mask=None, accum=None, desc: Descriptor | None = None):
    """``GrB_eWiseMult``: element-wise combine over the **intersection**."""
    desc = desc or NULL_DESC
    a = _resolve_input(a, desc, 0)
    b = _resolve_input(b, desc, 1)
    a._check_same_shape(b, "eWiseMult operand")
    _check_out_shape(out, a)
    binop = _as_binaryop(op)
    out_dtype = binop.result_type(a.dtype, b.dtype)
    a_keys = a._keys()
    b_keys = b._keys()
    common, a_pos, b_pos = np.intersect1d(
        a_keys, b_keys, assume_unique=True, return_indices=True
    )
    t_vals = out_dtype.cast_array(binop(a.values[a_pos], b.values[b_pos]))
    finalize_write(out, common, t_vals, mask, accum, desc)
    return out


def _as_binaryop(op) -> BinaryOp:
    if isinstance(op, BinaryOp):
        return op
    if isinstance(op, Monoid):
        return op.binaryop
    if isinstance(op, Semiring):
        return op.add.binaryop
    raise DomainMismatch(f"expected BinaryOp/Monoid/Semiring, got {type(op).__name__}")


# ---------------------------------------------------------------------------
# semiring products
# ---------------------------------------------------------------------------

def _vxm_kernel(semiring: Semiring, u: Vector, A: Matrix):
    """Push kernel: ``t[j] = ⊕_i  u[i] ⊗ A[i, j]`` over stored entries."""
    rows = u.indices
    flat, lengths = segment_gather(A._indptr, rows)
    if len(flat) == 0:
        return np.empty(0, dtype=INDEX_DTYPE), np.empty(0)
    left = np.repeat(u.values, lengths)
    right = A._values[flat]
    mults = semiring.multiply(left, right)
    cols = A._col_indices[flat]
    return group_reduce(cols, mults, semiring.add.ufunc)


def vxm(out, semiring: Semiring, u: Vector, A: Matrix, mask=None, accum=None, desc: Descriptor | None = None):
    """``GrB_vxm``: ``out = u' ⊕.⊗ A`` — the paper's relaxation kernel.

    With the ``(min, +)`` semiring and ``u = t ∘ tBi`` this computes
    ``tReq = A_L' (min.+) (t ∘ tBi)``: one simultaneous relaxation of all
    light edges out of the current bucket.
    """
    desc = desc or NULL_DESC
    A = _resolve_input(A, desc, 1)
    if u.size != A.nrows:
        raise DimensionMismatch(
            f"vxm: vector size {u.size} != matrix nrows {A.nrows}"
        )
    if not isinstance(out, Vector) or out.size != A.ncols:
        raise DimensionMismatch(f"vxm: output must be a vector of size {A.ncols}")
    t_keys, t_vals = _vxm_kernel(semiring, u, A)
    finalize_write(out, t_keys, t_vals, mask, accum, desc)
    return out


def _mxv_kernel(semiring: Semiring, A: Matrix, u: Vector):
    """Pull kernel: ``t[i] = ⊕_j  A[i, j] ⊗ u[j]`` over stored entries."""
    if A.nvals == 0 or u.nvals == 0:
        return np.empty(0, dtype=INDEX_DTYPE), np.empty(0)
    cols = A._col_indices
    present = membership(u.indices, cols)
    if not present.any():
        return np.empty(0, dtype=INDEX_DTYPE), np.empty(0)
    pos_in_u = np.searchsorted(u.indices, cols[present])
    mults = semiring.multiply(A._values[present], u.values[pos_in_u])
    rows = A.row_ids_expanded()[present]
    return group_reduce(rows, mults, semiring.add.ufunc)


def mxv(out, semiring: Semiring, A: Matrix, u: Vector, mask=None, accum=None, desc: Descriptor | None = None):
    """``GrB_mxv``: ``out = A ⊕.⊗ u``."""
    desc = desc or NULL_DESC
    A = _resolve_input(A, desc, 0)
    if u.size != A.ncols:
        raise DimensionMismatch(
            f"mxv: vector size {u.size} != matrix ncols {A.ncols}"
        )
    if not isinstance(out, Vector) or out.size != A.nrows:
        raise DimensionMismatch(f"mxv: output must be a vector of size {A.nrows}")
    t_keys, t_vals = _mxv_kernel(semiring, A, u)
    finalize_write(out, t_keys, t_vals, mask, accum, desc)
    return out


def _merge_partial(acc_keys, acc_vals, keys, vals, ufunc):
    """Combine partial (key, value) group results under the add monoid."""
    if acc_keys is None:
        return keys, vals
    all_keys = np.concatenate([acc_keys, keys])
    all_vals = np.concatenate([acc_vals, vals])
    return group_reduce(all_keys, all_vals, ufunc)


def _mxm_kernel(semiring: Semiring, A: Matrix, B: Matrix, mask_keys, complement: bool):
    """Chunked expansion mxm: flop-bounded memory, early mask filtering."""
    a_rows = A.row_ids_expanded()
    a_cols = A._col_indices
    a_vals = A._values
    if len(a_cols) == 0 or B.nvals == 0:
        return np.empty(0, dtype=INDEX_DTYPE), np.empty(0)
    ncols_b = np.int64(max(B.ncols, 1))
    b_deg = B.row_degrees()
    expansion = b_deg[a_cols]
    cum = np.cumsum(expansion)
    total = int(cum[-1])
    acc_keys = None
    acc_vals = None
    start = 0
    add_ufunc = semiring.add.ufunc
    while start < len(a_cols):
        base = cum[start - 1] if start > 0 else 0
        stop = int(np.searchsorted(cum, base + MXM_CHUNK_BUDGET, side="left")) + 1
        stop = min(max(stop, start + 1), len(a_cols))
        sl = slice(start, stop)
        flat, lengths = segment_gather(B._indptr, a_cols[sl])
        if len(flat):
            out_rows = np.repeat(a_rows[sl], lengths)
            out_cols = B._col_indices[flat]
            keys = out_rows * ncols_b + out_cols
            mults = semiring.multiply(np.repeat(a_vals[sl], lengths), B._values[flat])
            if mask_keys is not None:
                keep = membership(mask_keys, keys)
                if complement:
                    keep = ~keep
                keys = keys[keep]
                mults = mults[keep]
            if len(keys):
                pk, pv = group_reduce(keys, mults, add_ufunc)
                acc_keys, acc_vals = _merge_partial(acc_keys, acc_vals, pk, pv, add_ufunc)
        start = stop
    if acc_keys is None:
        return np.empty(0, dtype=INDEX_DTYPE), np.empty(0)
    return acc_keys, acc_vals


def mxm(out, semiring: Semiring, A: Matrix, B: Matrix, mask=None, accum=None, desc: Descriptor | None = None):
    """``GrB_mxm``: ``out = A ⊕.⊗ B`` with optional structural mask push-down.

    The masked form is the k-truss / triangle-counting workhorse
    (``S = AᵀA ∘ A`` in §II.C): with a mask the kernel filters candidate
    products per chunk *before* reduction — for a regular mask keeping only
    in-mask keys, for a complemented mask dropping them — the standard
    masked-mxm optimization.
    """
    desc = desc or NULL_DESC
    A = _resolve_input(A, desc, 0)
    B = _resolve_input(B, desc, 1)
    if A.ncols != B.nrows:
        raise DimensionMismatch(
            f"mxm: inner dimensions differ ({A.ncols} vs {B.nrows})"
        )
    if not isinstance(out, Matrix) or out.nrows != A.nrows or out.ncols != B.ncols:
        raise DimensionMismatch(
            f"mxm: output must be a {A.nrows}x{B.ncols} matrix"
        )
    mask_keys = None
    if mask is not None:
        out._check_same_shape(mask, "mask")
        mask_keys = effective_mask_keys(mask, desc.mask_structure)
    t_keys, t_vals = _mxm_kernel(
        semiring, A, B, mask_keys, desc.mask_complement
    )
    finalize_write(out, t_keys, t_vals, mask, accum, desc)
    return out


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------

def reduce_vector_to_scalar(monoid: Monoid, u: Vector, dtype: DataType | None = None):
    """``GrB_Vector_reduce``: fold all stored values through *monoid*."""
    dtype = from_dtype(dtype) if dtype is not None else u.dtype
    return monoid.reduce_all(u.values, dtype)


def reduce_matrix_to_scalar(monoid: Monoid, A: Matrix, dtype: DataType | None = None):
    """``GrB_Matrix_reduce`` to scalar."""
    dtype = from_dtype(dtype) if dtype is not None else A.dtype
    return monoid.reduce_all(A.values, dtype)


def reduce_matrix_to_vector(out, monoid: Monoid, A: Matrix, mask=None, accum=None, desc: Descriptor | None = None):
    """``GrB_Matrix_reduce_Monoid``: per-row fold (per-column with INP0 TRAN)."""
    desc = desc or NULL_DESC
    A = _resolve_input(A, desc, 0)
    if out is None:
        out = Vector(A.dtype, A.nrows)
    if not isinstance(out, Vector) or out.size != A.nrows:
        raise DimensionMismatch(f"reduce: output must be a vector of size {A.nrows}")
    rows = A.row_ids_expanded()
    t_keys, t_vals = group_reduce(rows, A._values, monoid.ufunc)
    finalize_write(out, t_keys, t_vals, mask, accum, desc)
    return out


# ---------------------------------------------------------------------------
# extract / assign
# ---------------------------------------------------------------------------

def _resolve_index_list(indices, extent: int) -> np.ndarray:
    """Normalize an index argument (None/ALL, slice, or array-like)."""
    if indices is None:
        return np.arange(extent, dtype=INDEX_DTYPE)
    if isinstance(indices, slice):
        return np.arange(*indices.indices(extent), dtype=INDEX_DTYPE)
    arr = as_index_array(indices)
    if len(arr) and (arr.min() < 0 or arr.max() >= extent):
        raise InvalidIndex(f"index out of range [0, {extent})")
    return arr


def extract_subvector(out, u: Vector, indices, mask=None, accum=None, desc: Descriptor | None = None):
    """``GrB_Vector_extract``: ``out[k] = u[indices[k]]`` (duplicates allowed)."""
    desc = desc or NULL_DESC
    idx = _resolve_index_list(indices, u.size)
    if out is None:
        out = Vector(u.dtype, len(idx))
    if not isinstance(out, Vector) or out.size != len(idx):
        raise DimensionMismatch(f"extract: output must be a vector of size {len(idx)}")
    present = membership(u.indices, idx)
    pos_in_u = np.searchsorted(u.indices, idx[present]) if present.any() else np.empty(0, dtype=INDEX_DTYPE)
    t_keys = np.nonzero(present)[0].astype(INDEX_DTYPE)
    t_vals = u.values[pos_in_u]
    finalize_write(out, t_keys, t_vals, mask, accum, desc)
    return out


def extract_submatrix(out, A: Matrix, rows, cols, mask=None, accum=None, desc: Descriptor | None = None):
    """``GrB_Matrix_extract``: ``out[k, l] = A[rows[k], cols[l]]``.

    Row duplicates are supported (segments repeat); column lists must be
    duplicate-free.
    """
    desc = desc or NULL_DESC
    A = _resolve_input(A, desc, 0)
    ridx = _resolve_index_list(rows, A.nrows)
    cidx = _resolve_index_list(cols, A.ncols)
    sorted_cols = np.sort(cidx)
    if not is_sorted_unique(sorted_cols):
        raise InvalidValue("extract_submatrix requires duplicate-free columns")
    if out is None:
        out = Matrix(A.dtype, len(ridx), len(cidx))
    if not isinstance(out, Matrix) or out.nrows != len(ridx) or out.ncols != len(cidx):
        raise DimensionMismatch(
            f"extract: output must be a {len(ridx)}x{len(cidx)} matrix"
        )
    # position of each selected column in the *output* column space
    col_slot = np.empty(len(cidx), dtype=INDEX_DTYPE)
    col_slot[np.argsort(cidx, kind="stable")] = np.arange(len(cidx), dtype=INDEX_DTYPE)
    # gather the requested rows, then filter entries to the requested columns
    flat, lengths = segment_gather(A._indptr, ridx)
    out_rows = np.repeat(np.arange(len(ridx), dtype=INDEX_DTYPE), lengths)
    entry_cols = A._col_indices[flat]
    keep = membership(sorted_cols, entry_cols)
    out_rows = out_rows[keep]
    kept_cols = entry_cols[keep]
    slot_of = col_slot[np.searchsorted(sorted_cols, kept_cols)]
    vals = A._values[flat][keep]
    keys = out_rows * np.int64(max(len(cidx), 1)) + slot_of
    order = np.argsort(keys, kind="stable")
    finalize_write(out, keys[order], vals[order], mask, accum, desc)
    return out


def assign_scalar_vector(w: Vector, value, indices=None, mask=None, accum=None, desc: Descriptor | None = None):
    """``GrB_Vector_assign_Scalar``: broadcast one scalar over positions."""
    desc = desc or NULL_DESC
    idx = _resolve_index_list(indices, w.size)
    idx = np.unique(idx)
    t_vals = np.full(len(idx), value, dtype=w.dtype.np_dtype)
    finalize_write(w, idx, t_vals, mask, accum, desc)
    return w


def assign_vector(w: Vector, u: Vector, indices=None, mask=None, accum=None, desc: Descriptor | None = None):
    """``GrB_Vector_assign``: ``w[indices[k]] = u[k]``.

    *indices* must be duplicate-free (spec requirement).
    """
    desc = desc or NULL_DESC
    idx = _resolve_index_list(indices, w.size)
    if len(idx) != u.size:
        raise DimensionMismatch(
            f"assign: index list length {len(idx)} != input size {u.size}"
        )
    if len(np.unique(idx)) != len(idx):
        raise InvalidValue("assign requires duplicate-free indices")
    t_keys_unsorted = idx[u.indices]
    order = np.argsort(t_keys_unsorted, kind="stable")
    finalize_write(w, t_keys_unsorted[order], u.values[order], mask, accum, desc)
    return w


def assign_scalar_matrix(C: Matrix, value, rows=None, cols=None, mask=None, accum=None, desc: Descriptor | None = None):
    """``GrB_Matrix_assign_Scalar``: broadcast one scalar over ``rows × cols``.

    The assigned pattern is the cross product of the two index lists
    (``None`` means ALL, per the spec).  Unlike the whole-output
    operations, assign only *touches the region*: entries of *C* outside
    ``rows × cols`` always survive, while the accumulate→mask→replace
    pipeline runs on the region's entries alone.
    """
    desc = desc or NULL_DESC
    if mask is not None:
        C._check_same_shape(mask, "mask")
    ridx = np.unique(_resolve_index_list(rows, C.nrows))
    cidx = np.unique(_resolve_index_list(cols, C.ncols))
    t_keys = (
        np.repeat(ridx, len(cidx)) * np.int64(max(C.ncols, 1))
        + np.tile(cidx, len(ridx))
    )
    t_vals = np.full(len(t_keys), value, dtype=C.dtype.np_dtype)
    c_keys = C._keys()
    c_vals = C.values
    in_region = membership(t_keys, c_keys)
    z_keys, z_vals = accum_merge(
        c_keys[in_region], c_vals[in_region], t_keys, t_vals, accum, C.dtype
    )
    mask_keys = (
        effective_mask_keys(mask, desc.mask_structure) if mask is not None else None
    )
    new_keys, new_vals = masked_write(
        c_keys[in_region],
        c_vals[in_region],
        z_keys,
        z_vals,
        mask_keys,
        desc.mask_complement,
        desc.replace,
        C.dtype,
    )
    merged_keys = np.concatenate([c_keys[~in_region], new_keys])
    merged_vals = np.concatenate([c_vals[~in_region], C.dtype.cast_array(new_vals)])
    order = np.argsort(merged_keys, kind="stable")
    C._set_keys(merged_keys[order], merged_vals[order])
    return C


# ---------------------------------------------------------------------------
# transpose / kronecker
# ---------------------------------------------------------------------------

def transpose(out, A: Matrix, mask=None, accum=None, desc: Descriptor | None = None):
    """``GrB_transpose`` with the full write pipeline.

    (With ``INP0=TRAN`` in *desc* this degenerates to a masked copy of *A*,
    exactly as the spec notes.)
    """
    desc = desc or NULL_DESC
    A_eff = A.transpose() if not desc.transpose0 else A
    if not isinstance(out, Matrix) or out.nrows != A_eff.nrows or out.ncols != A_eff.ncols:
        raise DimensionMismatch(
            f"transpose: output must be a {A_eff.nrows}x{A_eff.ncols} matrix"
        )
    finalize_write(out, A_eff._keys(), A_eff.values, mask, accum, desc)
    return out


def kronecker(out, op: BinaryOp, A: Matrix, B: Matrix):
    """``GrB_kronecker``: ``out[i·m+p, k·n+q] = op(A[i,k], B[p,q])``."""
    binop = _as_binaryop(op)
    nrows = A.nrows * B.nrows
    ncols = A.ncols * B.ncols
    if out is None:
        out = Matrix(binop.result_type(A.dtype, B.dtype), nrows, ncols)
    if not isinstance(out, Matrix) or out.nrows != nrows or out.ncols != ncols:
        raise DimensionMismatch(f"kronecker: output must be {nrows}x{ncols}")
    a_rows = A.row_ids_expanded()
    a_cols = A._col_indices
    b_rows = B.row_ids_expanded()
    b_cols = B._col_indices
    na, nb = A.nvals, B.nvals
    rows = np.repeat(a_rows, nb) * np.int64(B.nrows) + np.tile(b_rows, na)
    cols = np.repeat(a_cols, nb) * np.int64(B.ncols) + np.tile(b_cols, na)
    vals = binop(np.repeat(A._values, nb), np.tile(B._values, na))
    keys = rows * np.int64(max(ncols, 1)) + cols
    order = np.argsort(keys, kind="stable")
    finalize_write(out, keys[order], np.asarray(vals)[order], None, None, NULL_DESC)
    return out
