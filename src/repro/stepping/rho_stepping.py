"""ρ-stepping: extract the ρ nearest frontier vertices per step.

Dong et al. 2021's headline algorithm.  Where Δ-stepping batches by a
*distance window* (everything in ``[iΔ, (i+1)Δ)``), ρ-stepping batches by
*count*: each step extracts the ρ active vertices with the smallest
tentative distances and relaxes **all** of their out-edges in one wave —
no light/heavy split, no bucket re-entry loop.  ρ interpolates the other
axis of the Dijkstra ↔ Bellman–Ford spectrum:

- ρ = 1  → Dijkstra's settle-one-vertex order (with re-relaxation instead
  of a decrease-key heap);
- ρ = ∞  → Bellman–Ford (every active vertex relaxes every step).

The win over Δ-stepping is shape-robustness: a step's work is bounded by
the degree mass of ρ vertices regardless of how distances cluster, so
there is no Δ to mistune on graphs whose edge-weight scale varies across
regions.  The price is that an extracted vertex may be re-extracted after
a later improvement — the same label-correcting bet Δ-stepping makes
inside a bucket, here made globally.

The step is a select rule over the shared loop
(:func:`repro.stepping.base.window_resolve`): the batch is the ρ nearest
active vertices plus every tie at the ρ-th distance (so the step count
does not depend on tie-breaking order), and its bound is ``-inf`` — one
wave per step, with every improvement parked for the next step.
"""

from __future__ import annotations

import numpy as np

from ..graphs.graph import Graph
from ..sssp.result import SSSPResult
from .base import Stepper, int_knob, window_resolve

__all__ = ["rho_stepping", "default_rho", "RhoStepper"]


def default_rho(graph: Graph) -> int:
    """ρ heuristic: a constant fraction of the vertex set, floored.

    Dong et al. pick ρ so a step saturates the machine while keeping the
    wasted (re-relaxed) work low; sequentially the same trade reads
    "large enough to amortize the extraction scan, small enough to stay
    near the Dijkstra order".  n/8 with a floor of 64 lands there across
    the suite; the auto-tuner covers per-graph residuals.
    """
    return max(64, graph.num_vertices // 8)


def rho_stepping(graph: Graph, source: int, rho: int | None = None) -> SSSPResult:
    """Run ρ-stepping SSSP from *source* (``rho=None`` → :func:`default_rho`)."""
    return RhoStepper().solve(graph, source, rho=rho)


class RhoStepper(Stepper):
    """The ρ-stepping member of the framework (see module docstring)."""

    name = "rho"
    description = "extract the rho nearest active vertices per step (Dong et al. 2021)"

    def solve(
        self, graph: Graph, source: int, rho: int | None = None, kernel: str = "auto",
        recorder=None,
    ) -> SSSPResult:
        result = self._seeded_solve(
            graph, source, method="rho-stepping", rho=rho, kernel=kernel, recorder=recorder
        )
        result.extra["rho"] = rho if rho is not None else default_rho(graph)
        return result

    def resolve(
        self,
        graph: Graph,
        dist: np.ndarray,
        active: np.ndarray,
        rho: int | None = None,
        kernel: str = "auto",
        recorder=None,
    ) -> dict:
        rho = int_knob("rho", rho if rho is not None else default_rho(graph))

        def select(mask: np.ndarray) -> tuple[np.ndarray, float]:
            verts = np.nonzero(mask)[0]
            if len(verts) > rho:
                d = dist[verts]
                # the ρ-th smallest distance admits the batch, ties included
                verts = verts[d <= np.partition(d, rho - 1)[rho - 1]]
            return verts, -np.inf

        return window_resolve(graph, dist, active, select, kernel, recorder)

    def default_params(self, graph: Graph) -> dict:
        return {"rho": default_rho(graph)}
