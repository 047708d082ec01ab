"""The worked translation: delta-stepping as an IR program.

This module is the paper's Fig. 1 (left column) *as data*: the complete
linear-algebraic delta-stepping algorithm built from the pattern library,
lowerable to the unfused GraphBLAS call sequence of Fig. 2, optionally
fused (§VI.B), and executable through the interpreter.  End-to-end::

    program = delta_stepping_program()
    lowered = lower_program(program)                  # Fig. 2's call list
    fused, report = fuse_program(lowered)             # §VI.B rewrites
    result = run_delta_stepping_ir(graph, src, 1.0)   # execute either

The equivalence tests assert both pipelines produce Dijkstra's distances
and that fusion strictly reduces the static call count.
"""

from __future__ import annotations

import numpy as np

from ..graphblas.binaryop import LOR, LT, MIN
from ..graphblas.semiring import MIN_PLUS
from ..graphblas.types import BOOL, FP64
from ..graphblas.unaryop import IDENTITY, range_filter, threshold_geq, threshold_gt, threshold_leq
from ..graphs.graph import Graph
from ..sssp.result import INF, SSSPResult
from .fusion import fuse_program
from .interpreter import Interpreter
from .lower import LoweredProgram, lower_program
from .nodes import (
    ApplyUnary,
    Assign,
    Clear,
    Declare,
    EWiseUnion,
    NvalsNonzero,
    Program,
    Ref,
    SetElement,
    SetScalar,
    VxM,
    While,
)
from .patterns import min_merge, set_union

__all__ = ["delta_stepping_program", "run_delta_stepping_ir", "lower_program", "fuse_program"]


def delta_stepping_program(name: str = "delta-stepping") -> Program:
    """Build the full linear-algebraic delta-stepping IR program.

    Expects the execution environment to provide ``A`` (the adjacency
    matrix), ``delta`` (Δ), and ``src`` (source vertex id).  Produces
    distances in vector ``t`` (unstored ⇒ unreachable).
    """
    # thunked operators: their bounds read loop scalars at run time
    leq_delta = lambda env: threshold_leq(env["delta"])  # noqa: E731
    gt_delta = lambda env: threshold_gt(env["delta"])  # noqa: E731
    geq_floor = lambda env: threshold_geq(env["i"] * env["delta"])  # noqa: E731
    in_bucket = lambda env: range_filter(env["i"] * env["delta"], (env["i"] + 1) * env["delta"])  # noqa: E731

    statements = (
        # vectors and matrices (Fig. 2's declarations)
        Declare("t", "vector", FP64, size_of="A"),
        Declare("tB", "vector", BOOL, size_of="A"),
        Declare("tmasked", "vector", FP64, size_of="A"),
        Declare("tReq", "vector", FP64, size_of="A"),
        Declare("tless", "vector", BOOL, size_of="A"),
        Declare("s", "vector", BOOL, size_of="A"),
        Declare("tgeq", "vector", BOOL, size_of="A"),
        Declare("tcomp", "vector", FP64, size_of="A"),
        Declare("Ab", "matrix", BOOL, size_of="A"),
        Declare("Al", "matrix", FP64, size_of="A"),
        Declare("Ah", "matrix", FP64, size_of="A"),
        # t = ∞ (implicit: unstored); t[src] = 0
        SetElement("t", lambda env: env["src"], 0.0),
        # A_L = A ∘ (0 < A ≤ Δ): the two-call filter idiom (§V.B)
        Assign("Ab", ApplyUnary(leq_delta, Ref("A"))),
        Assign("Al", ApplyUnary(IDENTITY, Ref("A")), mask="Ab", replace=True),
        # A_H = A ∘ (A > Δ)
        Assign("Ab", ApplyUnary(gt_delta, Ref("A"))),
        Assign("Ah", ApplyUnary(IDENTITY, Ref("A")), mask="Ab", replace=True),
        # i = 0
        SetScalar("i", 0),
        # while (t ≥ iΔ) ≠ 0
        While(
            cond=NvalsNonzero("tcomp"),
            pre=(
                Assign("tgeq", ApplyUnary(geq_floor, Ref("t")), replace=True),
                Assign("tcomp", ApplyUnary(IDENTITY, Ref("t")), mask="tgeq", replace=True),
            ),
            body=(
                # s = 0
                Clear("s"),
                # tBi = (iΔ ≤ t < (i+1)Δ);  t ∘ tBi
                Assign("tB", ApplyUnary(in_bucket, Ref("t")), replace=True),
                Assign("tmasked", ApplyUnary(IDENTITY, Ref("t")), mask="tB", replace=True),
                # while tBi ≠ 0
                While(
                    cond=NvalsNonzero("tmasked"),
                    pre=(),
                    body=(
                        # tReq = A_L' (min.+) (t ∘ tBi)
                        Assign("tReq", VxM(MIN_PLUS, Ref("tmasked"), Ref("Al")), replace=True),
                        # S = (S + tBi) > 0
                        set_union("s", "s", "tB"),
                        # tBi = (iΔ ≤ tReq < (i+1)Δ) ∘ (tReq < t)
                        Assign(
                            "tless", EWiseUnion(LT, Ref("tReq"), INF, Ref("t"), INF),
                            mask="tReq", replace=True, structural=True,
                        ),
                        Assign("tB", ApplyUnary(in_bucket, Ref("tReq")), mask="tless", replace=True),
                        # t = min(t, tReq)
                        min_merge("t", "tReq"),
                        Assign("tmasked", ApplyUnary(IDENTITY, Ref("t")), mask="tB", replace=True),
                    ),
                ),
                # heavy phase: tReq = A_H' (min.+) (t ∘ S); t = min(t, tReq)
                Assign("tmasked", ApplyUnary(IDENTITY, Ref("t")), mask="s", replace=True),
                Assign("tReq", VxM(MIN_PLUS, Ref("tmasked"), Ref("Ah")), replace=True),
                min_merge("t", "tReq"),
                # i = i + 1
                SetScalar("i", lambda env: env["i"] + 1),
            ),
        ),
    )
    return Program(statements=statements, name=name)


def run_delta_stepping_ir(
    graph: Graph,
    source: int,
    delta: float = 1.0,
    fuse: bool = False,
) -> SSSPResult:
    """Execute the translated program on *graph*; optionally fused."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    n = graph.num_vertices
    if not 0 <= source < n:
        raise IndexError(f"source {source} out of range [0, {n})")
    lowered = lower_program(delta_stepping_program())
    report = None
    if fuse:
        lowered, report = fuse_program(lowered)
    interp = Interpreter({"A": graph.to_matrix(), "delta": float(delta), "src": int(source)})
    interp.run(lowered)
    t = interp.env["t"]
    distances = np.full(n, INF, dtype=np.float64)
    idx, vals = t.to_coo()
    distances[idx] = vals
    result = SSSPResult(
        distances=distances,
        source=source,
        delta=delta,
        method="ir-fused" if fuse else "ir-unfused",
    )
    result.extra["calls_executed"] = interp.calls_executed
    result.extra["calls_by_fn"] = dict(interp.calls_by_fn)
    if report is not None:
        result.extra["fusion_report"] = report
    return result
