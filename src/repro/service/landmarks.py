"""Landmark (ALT-style) distance estimation for degraded serving.

Precompute exact distances between a handful of *landmark* vertices and
everything else (one batch SSSP per direction), then answer arbitrary
``s → t`` queries in O(L) from the triangle inequality:

- **upper bound** — routing through the best landmark:
  ``min_L  d(s→L) + d(L→t)``;
- **lower bound** — the ALT bound used to steer A*:
  ``max_L  max(d(L→t) − d(L→s),  d(s→L) − d(t→L), 0)``.

The upper bound is *admissible* in the service's sense: it is a length of
a real walk, so it never undershoots the true distance — an approximate
answer the service can hand out while its circuit breaker holds the
exact solver off.  Undirected graphs need one distance table; directed
graphs also need the reverse-graph table for the ``d(·→L)`` terms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graphs.graph import Graph
from ..sssp.fused import fused_delta_stepping
from ..sssp.result import INF
from .batch import batch_delta_stepping

__all__ = ["DistanceEstimate", "LandmarkIndex", "select_landmarks"]


@dataclass(frozen=True)
class DistanceEstimate:
    """An interval certain to contain the true shortest distance."""

    lower: float
    upper: float

    @property
    def midpoint(self) -> float:
        if not np.isfinite(self.upper):
            return self.upper
        return 0.5 * (self.lower + self.upper)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DistanceEstimate<[{self.lower:g}, {self.upper:g}]>"


def select_landmarks(graph: Graph, k: int = 8) -> np.ndarray:
    """Pick up to *k* landmarks by greedy farthest-point sampling (the
    classic ALT selection).

    Start from the highest-degree vertex (a hub reaches most of the
    graph), then repeatedly add the vertex maximizing the minimum distance
    to the chosen set.  Unreachable vertices are skipped — a landmark in
    another component estimates nothing.  The selection is deterministic.
    """
    if k < 1:
        raise ValueError("need at least one landmark")
    if graph.num_vertices == 0:
        raise ValueError("cannot select landmarks on an empty graph")
    first = int(graph.out_degree().argmax())
    chosen = [first]
    closest = fused_delta_stepping(graph, first).distances.copy()
    while len(chosen) < k:
        finite = np.isfinite(closest)
        candidates = finite & ~np.isin(np.arange(graph.num_vertices), chosen)
        if not candidates.any():
            break
        nxt = int(np.where(candidates, closest, -1.0).argmax())
        chosen.append(nxt)
        np.minimum(closest, fused_delta_stepping(graph, nxt).distances, out=closest)
    return np.asarray(chosen, dtype=np.int64)


class LandmarkIndex:
    """Precomputed landmark distance tables + O(L) triangle-inequality bounds.

    Attributes
    ----------
    landmarks:
        The selected vertex ids, shape ``(L,)``.
    dist_from:
        ``dist_from[j, v] = d(landmarks[j] → v)``, shape ``(L, n)``.
    dist_to:
        ``dist_to[j, v] = d(v → landmarks[j])`` (same array as
        ``dist_from`` for undirected graphs).

    Indexes built with :meth:`build` stay bound to their graph and
    support the *lazy rebuild* policy for dynamic graphs: the index is
    stale once the bound graph's epoch moves past the one the tables
    were solved at — any mutation batch or announced raw edit, through
    whichever service or none — and the distance tables are re-solved
    only when the next approximate answer actually needs them
    (:meth:`ensure_fresh`).  The landmark *selection* is kept —
    re-selecting on every batch would churn the tables for marginal
    quality — only the two batch solves repeat.  An index constructed
    directly, without a graph, is never stale.
    """

    def __init__(
        self,
        landmarks: np.ndarray,
        dist_from: np.ndarray,
        dist_to: np.ndarray,
        graph: Graph | None = None,
        delta: float | None = None,
    ):
        self.landmarks = np.asarray(landmarks, dtype=np.int64)
        self.dist_from = dist_from
        self.dist_to = dist_to
        self._graph = graph
        self._delta = delta
        #: the bound graph's epoch when the tables were last solved
        self._epoch = graph.epoch if graph is not None else 0
        self.rebuilds = 0

    @classmethod
    def build(
        cls,
        graph: Graph,
        num_landmarks: int = 8,
        delta: float | None = None,
    ) -> "LandmarkIndex":
        """Select landmarks and solve their distance tables in two batches."""
        landmarks = select_landmarks(graph, num_landmarks)
        dist_from = batch_delta_stepping(graph, landmarks, delta=delta).distances
        if graph.directed:
            dist_to = batch_delta_stepping(graph.reverse(), landmarks, delta=delta).distances
        else:
            dist_to = dist_from
        return cls(landmarks, dist_from, dist_to, graph=graph, delta=delta)

    @property
    def num_landmarks(self) -> int:
        return len(self.landmarks)

    # -- staleness (dynamic graphs) ----------------------------------------

    @property
    def stale(self) -> bool:
        """True when the bound graph's epoch moved after the last table
        solve."""
        return self._graph is not None and self._graph.epoch != self._epoch

    def ensure_fresh(self) -> bool:
        """Re-solve the distance tables if stale; returns True on a rebuild.

        The lazy half of the rebuild policy: mutation batches stay cheap
        and the (two batch solves) rebuild cost lands on the first
        approximate answer that needs current tables.
        """
        if not self.stale:
            return False
        self.dist_from = batch_delta_stepping(self._graph, self.landmarks, delta=self._delta).distances
        if self._graph.directed:
            self.dist_to = batch_delta_stepping(
                self._graph.reverse(), self.landmarks, delta=self._delta
            ).distances
        else:
            self.dist_to = self.dist_from
        self._epoch = self._graph.epoch
        self.rebuilds += 1
        return True

    def upper_bound(self, source: int, target: int) -> float:
        """``min_L d(s→L) + d(L→t)`` — the length of a real s→L→t walk."""
        if source == target:
            return 0.0
        via = self.dist_to[:, source] + self.dist_from[:, target]
        return float(via.min()) if len(via) else INF

    def lower_bound(self, source: int, target: int) -> float:
        """The ALT lower bound (0 when no landmark separates the pair)."""
        if source == target:
            return 0.0
        # a landmark reaching neither endpoint yields inf - inf; the NaN
        # (and its RuntimeWarning) is expected and filtered out below
        with np.errstate(invalid="ignore"):
            fwd = self.dist_from[:, target] - self.dist_from[:, source]
            bwd = self.dist_to[:, source] - self.dist_to[:, target]
        bounds = np.concatenate([fwd, bwd])
        bounds = bounds[np.isfinite(bounds)]
        return float(max(bounds.max(initial=0.0), 0.0))

    def estimate(self, source: int, target: int) -> DistanceEstimate:
        """Both bounds as one interval (``[lower, inf]`` when no landmark
        connects the pair)."""
        n = self.dist_from.shape[1]
        if not (0 <= source < n and 0 <= target < n):
            raise IndexError(f"query vertex out of range [0, {n})")
        return DistanceEstimate(
            lower=self.lower_bound(source, target),
            upper=self.upper_bound(source, target),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"LandmarkIndex<L={self.num_landmarks}, n={self.dist_from.shape[1]}>"
