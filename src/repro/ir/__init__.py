"""The paper's translation methodology, executable.

Pipeline: vertex/edge patterns (:mod:`~repro.ir.patterns`) → linear
algebra IR (:mod:`~repro.ir.nodes`) → GraphBLAS call tree
(:mod:`~repro.ir.lower`) → optional fusion rewrites
(:mod:`~repro.ir.fusion`) → execution on the substrate
(:mod:`~repro.ir.interpreter`).  :mod:`~repro.ir.translate` assembles the
paper's worked example — the complete delta-stepping program.
"""

from .fusion import FusionReport, fuse_program
from .interpreter import Interpreter, run_program
from .lower import GrBCall, LoweredProgram, LoweredWhile, count_calls, lower_program
from .nodes import (
    ApplyUnary,
    Assign,
    Clear,
    Declare,
    EWiseAdd,
    EWiseMult,
    EWiseUnion,
    Expr,
    MxM,
    MxV,
    NvalsNonzero,
    Program,
    Reduce,
    Ref,
    SelectExpr,
    SetElement,
    SetScalar,
    Statement,
    TransposeExpr,
    VxM,
    While,
)
from .patterns import (
    bucket_membership,
    edge_pointwise,
    edge_set,
    eliminate_fillin,
    filter_edges,
    filter_vertices,
    min_merge,
    relax_edges,
    set_union,
    vertex_set,
)
from .translate import delta_stepping_program, run_delta_stepping_ir

__all__ = [
    # nodes
    "Expr",
    "Ref",
    "ApplyUnary",
    "EWiseAdd",
    "EWiseMult",
    "EWiseUnion",
    "VxM",
    "MxV",
    "MxM",
    "Reduce",
    "TransposeExpr",
    "SelectExpr",
    "Statement",
    "Declare",
    "Assign",
    "SetElement",
    "Clear",
    "SetScalar",
    "While",
    "NvalsNonzero",
    "Program",
    # patterns
    "vertex_set",
    "edge_set",
    "filter_vertices",
    "filter_edges",
    "edge_pointwise",
    "eliminate_fillin",
    "set_union",
    "relax_edges",
    "bucket_membership",
    "min_merge",
    # pipeline
    "lower_program",
    "count_calls",
    "GrBCall",
    "LoweredProgram",
    "LoweredWhile",
    "fuse_program",
    "FusionReport",
    "Interpreter",
    "run_program",
    "delta_stepping_program",
    "run_delta_stepping_ir",
]
