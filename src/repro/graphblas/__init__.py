"""A complete GraphBLAS implementation in pure Python/NumPy.

This package is the substrate the paper's implementations link against
(SuiteSparse:GraphBLAS for the C version, GBTL for the C++ version),
rebuilt from scratch on NumPy-vectorized sparse kernels:

- **Objects**: :class:`Vector`, :class:`Matrix`, :class:`Scalar`, typed by
  the predefined GraphBLAS domains (:mod:`~repro.graphblas.types`).
- **Operators**: unary/binary/index-unary ops, monoids, semirings — all the
  predefined ones plus user-defined constructors (the paper's ``delta_*``
  threshold functions are :func:`~repro.graphblas.unaryop.threshold_leq`
  et al.).
- **Operations**: ``apply``, ``select``, ``eWiseAdd``/``eWiseMult``,
  ``vxm``/``mxv``/``mxm``, reductions, ``extract``/``assign``,
  ``transpose``, ``kronecker`` — each with the spec's full
  mask/accumulator/descriptor write pipeline.
- **Facades**: :mod:`~repro.graphblas.capi` exposes C-style ``GrB_*``
  functions returning :class:`~repro.graphblas.info.Info` codes so the
  paper's Fig. 2 listing transliterates one-to-one;
  :mod:`~repro.graphblas.gbtl` mirrors the GBTL C++ template API.
"""

from . import binaryop, capi, descriptor, gbtl, indexunaryop, io, monoid, operations, semiring, types, unaryop
from .binaryop import (
    ANY,
    DIV,
    EQ,
    FIRST,
    GE,
    GT,
    LAND,
    LE,
    LOR,
    LT,
    LXOR,
    MAX,
    MIN,
    MINUS,
    NE,
    PAIR,
    PLUS,
    RDIV,
    RMINUS,
    SECOND,
    TIMES,
    BinaryOp,
)
from .descriptor import (
    COMPLEMENT,
    NULL_DESC,
    REPLACE,
    REPLACE_COMPLEMENT,
    REPLACE_STRUCTURE,
    STRUCTURE,
    TRANSPOSE0,
    TRANSPOSE1,
    Descriptor,
)
from .indexunaryop import IndexUnaryOp, value_in_range
from .info import GraphBLASError, Info, NoValue
from .matrix import Matrix
from .monoid import (
    ANY_MONOID,
    EQ_MONOID,
    LAND_MONOID,
    LOR_MONOID,
    LXOR_MONOID,
    MAX_MONOID,
    MIN_MONOID,
    PLUS_MONOID,
    TIMES_MONOID,
    Monoid,
)
from .operations import (
    apply,
    assign_scalar_matrix,
    assign_scalar_vector,
    assign_vector,
    ewise_add,
    ewise_mult,
    ewise_union,
    extract_submatrix,
    extract_subvector,
    kronecker,
    mxm,
    mxv,
    reduce_matrix_to_scalar,
    reduce_matrix_to_vector,
    reduce_vector_to_scalar,
    select,
    transpose,
    vxm,
)
from .scalar import Scalar
from .semiring import (
    ANY_PAIR,
    ANY_SECOND,
    LOR_LAND,
    MAX_PLUS,
    MIN_FIRST,
    MIN_MIN,
    MIN_PLUS,
    MIN_SECOND,
    MIN_TIMES,
    PLUS_MIN,
    PLUS_PAIR,
    PLUS_TIMES,
    Semiring,
)
from .types import (
    ALL_TYPES,
    BOOL,
    FP32,
    FP64,
    INT8,
    INT16,
    INT32,
    INT64,
    UINT8,
    UINT16,
    UINT32,
    UINT64,
    DataType,
)
from .unaryop import (
    ABS,
    AINV,
    IDENTITY,
    LNOT,
    MINV,
    ONE,
    UnaryOp,
    range_filter,
    threshold_geq,
    threshold_gt,
    threshold_leq,
    threshold_lt,
)
from .vector import Vector

__all__ = [
    # objects
    "Vector",
    "Matrix",
    "Scalar",
    # operator algebra
    "UnaryOp",
    "BinaryOp",
    "IndexUnaryOp",
    "Monoid",
    "Semiring",
    "DataType",
    "Descriptor",
    # predefined types
    "ALL_TYPES",
    "BOOL",
    "INT8", "INT16", "INT32", "INT64",
    "UINT8", "UINT16", "UINT32", "UINT64",
    "FP32", "FP64",
    # predefined unary ops
    "IDENTITY", "AINV", "MINV", "LNOT", "ONE", "ABS",
    "range_filter", "threshold_geq", "threshold_gt", "threshold_leq", "threshold_lt",
    # predefined binary ops
    "FIRST", "SECOND", "MIN", "MAX", "PLUS", "MINUS", "RMINUS",
    "TIMES", "DIV", "RDIV", "PAIR", "ANY",
    "EQ", "NE", "GT", "LT", "GE", "LE", "LOR", "LAND", "LXOR",
    # predefined index-unary ops
    "value_in_range",
    # predefined monoids
    "MIN_MONOID", "MAX_MONOID", "PLUS_MONOID", "TIMES_MONOID", "ANY_MONOID",
    "LOR_MONOID", "LAND_MONOID", "LXOR_MONOID", "EQ_MONOID",
    # predefined semirings
    "MIN_PLUS", "MIN_TIMES", "MIN_FIRST", "MIN_SECOND", "MIN_MIN",
    "MAX_PLUS", "PLUS_TIMES", "PLUS_MIN", "PLUS_PAIR",
    "ANY_PAIR", "ANY_SECOND", "LOR_LAND",
    # predefined descriptors
    "NULL_DESC", "REPLACE", "STRUCTURE", "COMPLEMENT",
    "REPLACE_STRUCTURE", "REPLACE_COMPLEMENT", "TRANSPOSE0", "TRANSPOSE1",
    # operations
    "apply",
    "select",
    "ewise_add",
    "ewise_mult",
    "ewise_union",
    "vxm",
    "mxv",
    "mxm",
    "reduce_vector_to_scalar",
    "reduce_matrix_to_vector",
    "reduce_matrix_to_scalar",
    "extract_subvector",
    "extract_submatrix",
    "assign_scalar_matrix",
    "assign_scalar_vector",
    "assign_vector",
    "transpose",
    "kronecker",
    # errors
    "Info",
    "GraphBLASError",
    "NoValue",
    # submodules
    "types",
    "unaryop",
    "binaryop",
    "indexunaryop",
    "monoid",
    "semiring",
    "descriptor",
    "operations",
    "capi",
    "gbtl",
    "io",
]
