"""Single-source shortest paths: the paper's algorithm in all its forms.

Five delta-stepping implementations spanning the paper's translation
pipeline, plus two classical baselines, each registered under its name in
the one solver registry, :data:`repro.stepping.STEPPERS`:

==========================  =================================================
``meyer-sanders``           canonical vertices/edges/buckets (Fig. 1 right)
``graphblas``               linear-algebraic, unfused GraphBLAS (Fig. 1 left,
                            structured like the Fig. 2 listing)
``capi``                    line-by-line Fig. 2 transliteration on the
                            C-facade (``GrB_*`` + Info codes)
``delta``                   direct fused kernels (the paper's fast C impl.)
``parallel``                OpenMP-task-style chunked parallel fused
``dijkstra``                binary-heap oracle
``bellman-ford``            edge-centric label-correcting baseline
==========================  =================================================

``graphblas`` and ``capi`` (and the IR program) depart from Fig. 2 in
one call: §V.B's re-entry step ``eWiseAdd(LT, tReq, t)`` under tReq's
value mask lost a vertex first reached at distance 0, so they run
``eWiseUnion(LT, tReq, ∞, t, ∞)`` under tReq's structural mask instead
(see :mod:`repro.sssp.graphblas_sssp`).

Entry point::

    from repro.sssp import delta_stepping
    result = delta_stepping(graph, source=0, delta=1.0, method="delta")
"""

from __future__ import annotations

from ..graphs.graph import Graph
from .capi_sssp import capi_delta_stepping
from .delta import choose_delta
from .fused import fused_delta_stepping
from .graphblas_sssp import graphblas_delta_stepping
from .meyer_sanders import meyer_sanders_delta_stepping
from .parallel import parallel_delta_stepping
from .paths import path_weight, predecessor_tree, reconstruct_path
from .reference import bellman_ford, dijkstra
from .result import SSSPResult
from .validate import (
    check_against_dijkstra,
    check_against_networkx,
    check_optimality_conditions,
)

__all__ = [
    "delta_stepping",
    "SSSPResult",
    "dijkstra",
    "bellman_ford",
    "choose_delta",
    "meyer_sanders_delta_stepping",
    "graphblas_delta_stepping",
    "capi_delta_stepping",
    "fused_delta_stepping",
    "parallel_delta_stepping",
    "check_against_dijkstra",
    "check_optimality_conditions",
    "check_against_networkx",
    "predecessor_tree",
    "reconstruct_path",
    "path_weight",
]


def delta_stepping(
    graph: Graph,
    source: int = 0,
    delta: float | None = None,
    method: str = "delta",
    **kwargs,
) -> SSSPResult:
    """Run delta-stepping SSSP.

    Parameters
    ----------
    graph:
        A :class:`repro.graphs.Graph` (non-negative weights).
    source:
        Source vertex id.
    delta:
        Bucket width Δ; ``None`` selects it automatically
        (:func:`repro.sssp.delta.choose_delta` — 1.0 on unit weights,
        matching the paper).
    method:
        A stepper spec over :data:`repro.stepping.STEPPERS` — a registry
        name such as ``"delta"`` or ``"meyer-sanders"``, or a
        parameterized form like ``"delta(kernel=scatter)"``.
    kwargs:
        Forwarded to the implementation (e.g. ``num_threads=4`` for
        ``"parallel"``, ``recorder=`` for any stepper, ``strict=True``
        for ``"meyer-sanders"``).
    """
    from ..stepping import solve_with

    if delta is not None:
        kwargs["delta"] = delta
    return solve_with(method, graph, source, **kwargs)
