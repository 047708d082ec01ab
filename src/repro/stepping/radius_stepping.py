"""Radius-stepping: per-vertex radii bound each step's settle range.

Blelloch, Gu, Sun & Tangwongsan ("Parallel Shortest-Paths Using Radius
Stepping", 2016).  Δ-stepping's fixed window assumes one edge-weight
scale fits the whole graph; radius-stepping derives the window from the
graph itself.  Each vertex ``v`` precomputes a radius ``r(v)`` — the
distance to its k-th nearest out-neighbor, i.e. the k-th smallest
out-edge weight — and a step settles everything up to

    bound = min over active v of  ( d(v) + r(v) )

Any vertex whose final distance is ≤ bound is discoverable by relaxing
only vertices ≤ bound: a shortest path entering the range from outside
would have to leave some active ``u`` through an edge shorter than
``r(u)``, which the bound already accounts for.  So one step settles the
whole range after an inner substep loop reaches quiescence below the
bound — the shared :func:`repro.stepping.base.relax_window`, fed by
this module's select rule through
:func:`~repro.stepping.base.window_resolve`.  Correctness needs only
``bound ≥ min active distance``, which holds because ``r ≥ 0``.

``k`` trades precompute against step count: larger k → larger radii →
fewer, fatter steps.  k = average degree makes ``r(v)`` the "full
neighborhood" radius for typical vertices and is the default.
"""

from __future__ import annotations

import numpy as np

from ..graphs.graph import Graph
from ..kernels import cached_row_ids
from ..sssp.result import SSSPResult
from .base import Stepper, int_knob, window_resolve

__all__ = ["radius_stepping", "vertex_radii", "default_k", "RadiusStepper"]


def default_k(graph: Graph) -> int:
    """k heuristic: the average out-degree (≥ 1)."""
    if graph.num_vertices == 0:
        return 1
    return max(1, int(round(graph.num_edges / graph.num_vertices)))


def vertex_radii(graph: Graph, k: int | None = None) -> np.ndarray:
    """``r(v)``: the k-th smallest out-edge weight of every vertex.

    Vertices with fewer than k out-edges get an infinite radius — they
    never constrain the bound (their whole neighborhood is reachable in
    one wave).  One vectorized pass: sort weights *within* CSR rows, then
    gather each row's (k-1)-th entry.
    """
    k = int_knob("k", k if k is not None else default_k(graph))
    n = graph.num_vertices
    radii = np.full(n, np.inf, dtype=np.float64)
    if graph.num_edges == 0:
        return radii
    # sort weights within rows: argsort the (row, weight) pairs; row ids
    # are the primary key so each row's weights come out ascending
    rows = cached_row_ids(graph)
    order = np.lexsort((graph.weights, rows))
    sorted_w = graph.weights[order]
    deg = np.diff(graph.indptr)
    has_k = deg >= k
    if has_k.any():
        starts = graph.indptr[:-1][has_k]
        radii[has_k] = sorted_w[starts + (k - 1)]
    return radii


def radius_stepping(graph: Graph, source: int, k: int | None = None) -> SSSPResult:
    """Run radius-stepping SSSP from *source* (``k=None`` → :func:`default_k`)."""
    return RadiusStepper().solve(graph, source, k=k)


class RadiusStepper(Stepper):
    """The radius-stepping member of the framework (see module docstring)."""

    name = "radius"
    description = "per-vertex k-radius precompute bounds each step (Blelloch et al. 2016)"

    def solve(
        self, graph: Graph, source: int, k: int | None = None, kernel: str = "auto",
        recorder=None,
    ) -> SSSPResult:
        result = self._seeded_solve(
            graph, source, method="radius-stepping", k=k, kernel=kernel, recorder=recorder
        )
        result.extra["k"] = k if k is not None else default_k(graph)
        return result

    def resolve(
        self,
        graph: Graph,
        dist: np.ndarray,
        active: np.ndarray,
        k: int | None = None,
        kernel: str = "auto",
        recorder=None,
    ) -> dict:
        radii = vertex_radii(graph, k)

        def select(mask: np.ndarray) -> tuple[np.ndarray, float]:
            verts = np.nonzero(mask)[0]
            d = dist[verts]
            # the step bound; the max() keeps it >= the nearest active
            # vertex (all correctness needs) when every radius is infinite
            bound = max(float(np.min(d + radii[verts])), float(d.min()))
            return verts[d <= bound], bound

        return window_resolve(graph, dist, active, select, kernel, recorder)

    def default_params(self, graph: Graph) -> dict:
        return {"k": default_k(graph)}
