"""The result object shared by every SSSP implementation.

All five implementations (canonical Meyer–Sanders, Pythonic GraphBLAS,
C-facade GraphBLAS, fused, task-parallel) and both baselines (Dijkstra,
Bellman–Ford) return an :class:`SSSPResult`, so tests and benchmarks
compare them uniformly.  Unreachable vertices carry ``inf``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["SSSPResult", "INF"]

INF = np.inf


@dataclass
class SSSPResult:
    """Distances plus the work counters the paper's analysis talks about.

    Attributes
    ----------
    distances:
        Dense ``float64`` array, ``inf`` for unreachable vertices.
    source, delta, method:
        Run parameters (``delta`` is ``nan`` for non-delta algorithms).
    buckets_processed:
        Outer-loop iterations that processed a non-empty bucket.
    phases:
        Processing phases — simultaneous relaxations of all light (or all
        heavy) edges; the unit of parallelism in Meyer–Sanders.
    relaxations:
        Relaxation requests generated (size of all ``Req`` sets).
    updates:
        Requests that improved a tentative distance.
    """

    distances: np.ndarray
    source: int
    delta: float
    method: str
    buckets_processed: int = 0
    phases: int = 0
    relaxations: int = 0
    updates: int = 0
    extra: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return len(self.distances)

    def reached(self) -> np.ndarray:
        """Boolean mask of vertices with a finite distance."""
        return np.isfinite(self.distances)

    @property
    def num_reached(self) -> int:
        return int(np.isfinite(self.distances).sum())

    def distance_to(self, v: int) -> float:
        return float(self.distances[v])

    def same_distances(self, other: "SSSPResult", rtol: float = 1e-9, atol: float = 1e-12) -> bool:
        """Distance-array equality with tolerance (``inf`` matches ``inf``)."""
        a, b = self.distances, other.distances
        if a.shape != b.shape:
            return False
        fin_a, fin_b = np.isfinite(a), np.isfinite(b)
        if not np.array_equal(fin_a, fin_b):
            return False
        return bool(np.allclose(a[fin_a], b[fin_b], rtol=rtol, atol=atol))

    def max_abs_difference(self, other: "SSSPResult") -> float:
        """Largest |Δdistance| over mutually-reached vertices (diagnostics)."""
        both = np.isfinite(self.distances) & np.isfinite(other.distances)
        if not both.any():
            return 0.0
        return float(np.max(np.abs(self.distances[both] - other.distances[both])))

    def summary(self) -> dict:
        """Flat dict for reports."""
        return {
            "method": self.method,
            "source": self.source,
            "delta": self.delta,
            "reached": self.num_reached,
            "buckets": self.buckets_processed,
            "phases": self.phases,
            "relaxations": self.relaxations,
            "updates": self.updates,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SSSPResult<{self.method}: src={self.source}, delta={self.delta}, "
            f"reached={self.num_reached}/{self.n}, phases={self.phases}>"
        )
