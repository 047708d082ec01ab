"""Multi-source SSSP for the service: a batch is K single-source solves.

The paper's fastest Δ-stepping (§VI.B, Fig. 3's "Fused C impl.") is one
direct loop over a single source's vertices, and that loop runs compiled
here (:mod:`repro.kernels.compiled`).  :func:`batch_delta_stepping`
therefore solves a batch of K sources as K calls of one registered
stepper's :meth:`~repro.stepping.Stepper.solve` and stacks the rows into
a K×n matrix.  Each row is bit-identical to its own single-source run,
and the counters are the sum of the K runs' counters.

Sharing waves across the K searches (one ``mxm`` per wave instead of K
``vxm``, the bucket fusion of Dong et al. 2021) saves only per-wave
dispatch, which the compiled loop does not pay: measured per source, a
shared-wave batch cost the same as or more than separate compiled
solves on every perf graph.  A single-source solve is also the unit of
work a threaded drain would hand to each thread.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..graphs.graph import Graph
from ..sssp.delta import choose_delta
from ..sssp.result import SSSPResult

__all__ = ["BatchSSSPResult", "batch_delta_stepping"]


@dataclass
class BatchSSSPResult:
    """Distances from K sources plus aggregate work counters.

    ``distances[k, v]`` is the shortest distance from ``sources[k]`` to
    ``v`` (``inf`` when unreachable).  Each counter is the sum of the K
    single-source solves' counters.
    """

    distances: np.ndarray
    sources: np.ndarray
    delta: float
    method: str
    buckets_processed: int = 0
    phases: int = 0
    relaxations: int = 0
    updates: int = 0
    extra: dict = field(default_factory=dict)

    @property
    def num_sources(self) -> int:
        return len(self.sources)

    @property
    def n(self) -> int:
        return self.distances.shape[1]

    def result_for(self, k: int) -> SSSPResult:
        """Row *k* repackaged as a single-source :class:`SSSPResult`."""
        if not 0 <= k < self.num_sources:
            raise IndexError(f"batch row {k} out of range [0, {self.num_sources})")
        return SSSPResult(
            distances=self.distances[k].copy(),
            source=int(self.sources[k]),
            delta=self.delta,
            method=self.method,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BatchSSSPResult<{self.method}: K={self.num_sources}, n={self.n}, "
            f"phases={self.phases}>"
        )


def _check_sources(graph: Graph, sources) -> np.ndarray:
    src = np.asarray(sources, dtype=np.int64).reshape(-1)
    if len(src) == 0:
        raise ValueError("batch needs at least one source")
    n = graph.num_vertices
    if src.min() < 0 or src.max() >= n:
        raise IndexError(f"source out of range [0, {n})")
    return src


def batch_delta_stepping(
    graph: Graph,
    sources,
    delta: float | None = None,
    method: str = "delta",
    recorder=None,
) -> BatchSSSPResult:
    """Run SSSP from every one of *sources*, one single-source solve each.

    Parameters
    ----------
    graph:
        A :class:`repro.graphs.Graph` (non-negative weights).
    sources:
        Sequence of source vertex ids (duplicates allowed — each gets its
        own row).
    delta:
        Bucket width Δ of the ``delta`` stepper; ``None`` selects it
        automatically (:func:`repro.sssp.delta.choose_delta`).  Ignored
        by every other stepper (each picks its own knobs).
    method:
        A stepper spec over :data:`repro.stepping.STEPPERS` — a bare
        name or a parameterized form like ``"sharded(shards=4)"``.
        ``"delta"`` (the default) takes no spec params: pass ``delta=``.
    recorder:
        A truthy :class:`repro.obs.Recorder` forwards into every solve
        except ``delta``'s: a recorded ``delta`` solve runs the NumPy
        loop, so the ``delta`` rows stay on the compiled loop and the
        caller's span around this call covers them (the service's
        ``service:batch-solve`` carries their phase and relaxation
        counts).  Recording never changes the distances.

    ``method`` on the result reads ``batch-loop:<spec>``.
    """
    from ..stepping import resolve_stepper_spec

    try:
        stepper, params = resolve_stepper_spec(method)
    except ValueError as exc:
        raise ValueError(f"unknown batch method {method!r}: {exc}") from None
    if stepper.name == "delta":
        if params:
            raise ValueError(
                f"batch method {stepper.name!r} takes no spec params (got {method!r}); "
                "pass delta= directly"
            )
        if delta is None:
            delta = choose_delta(graph)
        params = {"delta": delta}
    else:
        delta = float("nan")
        if recorder:
            params = {**params, "recorder": recorder}
    src = _check_sources(graph, sources)
    distances = np.empty((len(src), graph.num_vertices), dtype=np.float64)
    res = BatchSSSPResult(distances=distances, sources=src, delta=delta,
                          method=f"batch-loop:{method}")
    for k, s in enumerate(src):
        r = stepper.solve(graph, int(s), **params)
        distances[k] = r.distances
        res.buckets_processed += r.buckets_processed
        res.phases += r.phases
        res.relaxations += r.relaxations
        res.updates += r.updates
    return res
