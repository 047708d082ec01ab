"""Δ*-stepping: sliding buckets with lazy Bellman–Ford batching inside.

Dong et al. 2021's tuned Δ-variant.  Two changes over the paper's classic
Δ-stepping (:func:`repro.sssp.fused.fused_delta_stepping`):

1. **Sliding window.**  The classic bucket grid is fixed at
   ``[iΔ, (i+1)Δ)`` from distance 0, so a cluster of distances straddling
   a grid line splits into two buckets and sparse distance ranges leave
   empty buckets to skip.  Δ* anchors each step at the current nearest
   active distance: the window is ``[dmin, dmin + Δ]``.  Every step is
   guaranteed non-empty and windows land where the distances are.

2. **Lazy Bellman–Ford batching inside the bucket.**  The classic inner
   loop splits edges into light (relaxed per phase) and heavy (relaxed
   once at bucket close) to avoid useless heavy re-relaxations.  Δ*
   instead relaxes *all* out-edges of the window batch every phase —
   plain Bellman–Ford iterations restricted to the window — and relies
   on lazy re-entry (a vertex re-relaxes only when its distance actually
   improves) to bound the waste.  The phases lose the light/heavy
   bookkeeping and the split's two extra CSR passes, which on the NumPy
   substrate is the larger cost.

With the anchor sliding, Δ* tolerates a much larger Δ than the classic
grid — the default is 4× the Meyer–Sanders choice — pushing it toward
the Bellman–Ford end of the spectrum where fewer, fatter waves win.

The step is a select rule over the shared loop
(:func:`repro.stepping.base.window_resolve`): the batch is every active
vertex at or below ``bound = min active + Δ`` (inclusive), and the
loop's :func:`~repro.stepping.base.relax_window` re-relaxes in-window
improvements.  The sharded stepper runs the same window per shard, so
``sharded(shards=1)`` walks exactly this schedule.
"""

from __future__ import annotations

import numpy as np

from ..graphs.graph import Graph
from ..sssp.delta import choose_delta
from ..sssp.result import SSSPResult
from .base import Stepper, positive_knob, window_resolve

__all__ = ["delta_star_stepping", "default_delta_star", "DeltaStarStepper"]

#: Δ* widening factor over the classic Δ heuristic (sliding windows make
#: wide buckets cheap; see module docstring)
WIDEN = 4.0


def default_delta_star(graph: Graph) -> float:
    """Δ* heuristic: the classic auto-Δ, widened by :data:`WIDEN`."""
    return WIDEN * choose_delta(graph)


def delta_star_stepping(graph: Graph, source: int, delta: float | None = None) -> SSSPResult:
    """Run Δ*-stepping SSSP from *source* (``delta=None`` → auto, widened)."""
    return DeltaStarStepper().solve(graph, source, delta=delta)


class DeltaStarStepper(Stepper):
    """The Δ*-stepping member of the framework (see module docstring)."""

    name = "delta-star"
    description = "sliding buckets, lazy Bellman-Ford inside (Dong et al. 2021)"

    def solve(
        self, graph: Graph, source: int, delta: float | None = None, kernel: str = "auto",
        recorder=None,
    ) -> SSSPResult:
        delta = delta if delta is not None else default_delta_star(graph)
        return self._seeded_solve(
            graph, source, method="delta-star", delta=delta, kernel=kernel, recorder=recorder
        )

    def resolve(
        self,
        graph: Graph,
        dist: np.ndarray,
        active: np.ndarray,
        delta: float | None = None,
        kernel: str = "auto",
        recorder=None,
    ) -> dict:
        delta = positive_knob("delta", delta if delta is not None else default_delta_star(graph))

        def select(mask: np.ndarray) -> tuple[np.ndarray, float]:
            # the window anchors at the nearest active distance — every
            # step is non-empty by construction (no empty-bucket skipping)
            verts = np.nonzero(mask)[0]
            d = dist[verts]
            bound = float(d.min()) + delta
            return verts[d <= bound], bound

        return window_resolve(graph, dist, active, select, kernel, recorder)

    def default_params(self, graph: Graph) -> dict:
        return {"delta": default_delta_star(graph)}
