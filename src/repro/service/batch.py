"""Multi-source batched delta-stepping: K searches per relaxation wave.

The paper expresses a relaxation wave as ``tReq = A_Lᵀ (min.+) (t ∘ tBi)``
— a ``vxm`` over one frontier *vector*.  Stacking K frontiers as the rows
of a K×n matrix lifts the same wave to one ``mxm``: every phase relaxes
the light (or heavy) edges of **all K searches simultaneously**, so the
per-phase fixed costs (bucket filtering, candidate grouping, the Python
dispatch itself) are paid once per wave instead of once per source.  That
amortization is where the batch throughput win comes from — the same
bucket-fusion observation as Dong et al. 2021 ("Efficient Stepping
Algorithms and Implementations for Parallel Shortest Paths").

One native engine, :func:`batch_fused_delta_stepping`, batches the
``delta`` stepper (the default).  State is one flattened dense array
over the K×n key space (``key = k·n + v``), and the engine runs the
single-source solver's own Δ-bucket loop
(:func:`repro.sssp.fused.run_buckets`) seeded with the K source keys
``k·n + s_k``, over the graph's light/heavy split cached per epoch.  By
default that loop runs compiled, and the C code maps each key onto its
CSR row itself.  On the NumPy fallback (no C compiler, or a pinned
kernel) the one batch-specific piece is an int32 row-offset gather that
expands each key's CSR row and keeps its targets in the key's own row,
and the per-target min runs the ``scatter`` kernel over the K·n key
space.  A one-source batch walks exactly the single-source schedule,
counters included, on either back end.

Every other registered stepper — ``graphblas`` included — batches as K
independent solves (:func:`batch_stepper_loop`), with the same
distances.

Bucket synchronization: all K sources share one bucket queue, so they
share the global bucket index ``i`` (bucket = ``[iΔ, (i+1)Δ)``).
Relaxations never cross rows, so each row's bucket sequence is identical
to its own single-source run; sources with nothing in bucket ``i``
simply contribute no frontier entries and wait.  Distances are therefore
*exactly* those of K independent runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..graphs.graph import Graph
from ..kernels import RelaxWorkspace, check_kernel, compiled
from ..sssp.delta import choose_delta
from ..sssp.fused import cached_split, run_buckets
from ..sssp.result import INF, SSSPResult

__all__ = [
    "BatchSSSPResult",
    "batch_delta_stepping",
    "batch_fused_delta_stepping",
    "batch_stepper_loop",
]

#: flattened K·n state-size guard — past this, chunk the sources instead
#: (the service planner does; see :mod:`repro.service.planner`)
MAX_STATE_ENTRIES = 1 << 27


@dataclass
class BatchSSSPResult:
    """Distances from K sources plus aggregate work counters.

    ``distances[k, v]`` is the shortest distance from ``sources[k]`` to
    ``v`` (``inf`` when unreachable).  Counters aggregate over the whole
    batch; phases count shared waves, not per-source waves — that gap is
    the batching win.
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


def batch_fused_delta_stepping(
    graph: Graph, sources, delta: float = 1.0, kernel: str = "auto"
) -> BatchSSSPResult:
    """Fused batch engine: the shared Δ-bucket loop on the K·n key space.

    All state lives in one flat ``float64`` array of length K·n indexed
    by ``key = k·n + v``; the engine seeds the single-source solver's
    loop (:func:`repro.sssp.fused.run_buckets`) with the K keys
    ``k·n + s_k`` over the graph's cached light/heavy split.  With
    ``kernel="auto"`` (the default) and the compiled loop loaded
    (:func:`repro.kernels.compiled.run_buckets`), that is the whole
    engine: the C loop maps each key onto its CSR row itself.  Otherwise
    the NumPy loop runs with one thing of the engine's own: an int32 row-offset
    gather that expands each key's CSR row and offsets the targets into
    the owning row (``k·n + neighbor``), so relaxations never cross rows.
    There, ``auto`` means ``scatter``
    (:func:`repro.kernels.min_by_target_scatter` over a
    :class:`~repro.kernels.RelaxWorkspace` sized to the flattened state,
    the batching win); ``argsort`` and ``scatter`` pin a NumPy kernel.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    check_kernel(kernel)
    src = _check_sources(graph, sources)
    K, n = len(src), graph.num_vertices
    if K * n > MAX_STATE_ENTRIES:
        raise ValueError(
            f"batch state K*n = {K * n} exceeds {MAX_STATE_ENTRIES}; "
            "chunk the sources (the service planner does this)"
        )

    split = cached_split(graph, delta)
    t = np.full(K * n, INF, dtype=np.float64)
    keys = np.arange(K, dtype=np.int64) * n + src
    t[keys] = 0.0
    counters = compiled.run_buckets(split, t, keys, delta) if kernel == "auto" else None
    if counters is None:
        counters = _numpy_batch(split, t, keys, delta, "scatter" if kernel == "auto" else kernel, n)
    return BatchSSSPResult(
        distances=t.reshape(K, n),
        sources=src,
        delta=delta,
        method="batch-fused",
        buckets_processed=counters["steps"],
        phases=counters["phases"],
        relaxations=counters["relaxations"],
        updates=counters["updates"],
    )


def _numpy_batch(split, t: np.ndarray, keys: np.ndarray, delta: float, kernel: str,
                 n: int) -> dict[str, int]:
    """The NumPy loop on the K·n key space, with the engine's int32 gather."""
    (ALp, ALi, ALw), (AHp, AHi, AHw) = split
    # K·n ≤ MAX_STATE_ENTRIES < 2^31, so int32 keys are safe and halve the
    # index traffic of the expansion (the hot path's memory bound)
    split = (ALp, ALi.astype(np.int32), ALw), (AHp, AHi.astype(np.int32), AHw)
    # shared 0..total ramp, grown on demand (a wave's total can reach K·E);
    # kept int32 here — half the index traffic of the workspace's int64 ramp
    iota = [np.arange(max(len(ALi), len(AHi), 1), dtype=np.int32)]

    # repro: hot
    def gather(indptr, indices, weights, frontier, t, workspace):
        verts = frontier % n
        base = (frontier - verts).astype(np.int32)  # k·n offset of each entry's row
        starts = indptr[verts].astype(np.int32)
        lengths = (indptr[verts + 1] - indptr[verts]).astype(np.int32)
        total = int(lengths.sum())
        if total == 0:
            return None, None
        if total >= 2**31:  # pragma: no cover - int32 expansion guard
            raise ValueError("relaxation wave too large; reduce the batch size")
        if total > len(iota[0]):
            # repro: alloc-ok — geometric-style ramp regrowth, amortized away
            iota[0] = np.arange(total, dtype=np.int32)
        offsets = np.repeat(np.cumsum(lengths, dtype=np.int32) - lengths, lengths)
        flat = iota[0][:total] - offsets + np.repeat(starts, lengths)
        targets = np.repeat(base, lengths) + indices[flat]
        return targets, np.repeat(t[frontier], lengths) + weights[flat]

    # request buffer + touched mask over the flattened state, reused per wave
    return run_buckets(
        split, t, keys, delta, kernel=kernel, workspace=RelaxWorkspace(len(t)), gather=gather
    )


def batch_stepper_loop(
    graph: Graph, sources, stepper: str = "rho", recorder=None
) -> BatchSSSPResult:
    """K independent runs of a registered stepper, packaged as a batch.

    The adapter that lets the multi-source engine dispatch to **any**
    member of the :data:`repro.stepping.STEPPERS` portfolio: no shared
    waves (each stepper owns its schedule), but the same
    :class:`BatchSSSPResult` surface, so the service planner can route a
    tuned stepper choice through the existing execution path unchanged.
    *stepper* may carry spec params (``"sharded(shards=2)"``) — the
    auto-tuner's picks arrive in that spelling.  Counters aggregate
    across the K runs; phases here count per-source waves (there is no
    batching win to report).  A truthy *recorder* (:mod:`repro.obs`)
    forwards into every per-source solve.
    """
    from ..stepping import resolve_stepper_spec

    src = _check_sources(graph, sources)
    s, params = resolve_stepper_spec(stepper)
    if recorder:
        params = {**params, "recorder": recorder}
    K, n = len(src), graph.num_vertices
    distances = np.full((K, n), INF, dtype=np.float64)
    counters = {"buckets": 0, "phases": 0, "relaxations": 0, "updates": 0}
    for k in range(K):
        r = s.solve(graph, int(src[k]), **params)
        distances[k] = r.distances
        counters["buckets"] += r.buckets_processed
        counters["phases"] += r.phases
        counters["relaxations"] += r.relaxations
        counters["updates"] += r.updates
    return BatchSSSPResult(
        distances=distances,
        sources=src,
        delta=float("nan"),
        method=f"batch-loop:{stepper}",
        buckets_processed=counters["buckets"],
        phases=counters["phases"],
        relaxations=counters["relaxations"],
        updates=counters["updates"],
    )


def batch_delta_stepping(
    graph: Graph,
    sources,
    delta: float | None = None,
    method: str = "delta",
    recorder=None,
) -> BatchSSSPResult:
    """Run SSSP from all *sources*, batched where the stepper supports it.

    Parameters
    ----------
    graph:
        A :class:`repro.graphs.Graph` (non-negative weights).
    sources:
        Sequence of source vertex ids (duplicates allowed — each gets its
        own row).
    delta:
        Bucket width Δ; ``None`` selects it automatically
        (:func:`repro.sssp.delta.choose_delta`).  Ignored by
        stepper-dispatched methods (each stepper picks its own knobs).
    method:
        A stepper spec over :data:`repro.stepping.STEPPERS` — a bare
        name or a parameterized form like ``"sharded(shards=4)"``.
        ``"delta"`` (the default) runs the native
        :func:`batch_fused_delta_stepping` and takes no spec params;
        every other spec runs through :func:`batch_stepper_loop`.
    recorder:
        A truthy :class:`repro.obs.Recorder` forwards into
        stepper-dispatched solves.  The native engine is one loop call
        and records nothing itself: the caller's span around this call
        covers it (the service's ``service:batch-solve`` carries its
        phase and relaxation counts).  Recording never changes the
        distances.
    """
    from ..stepping import resolve_stepper_spec

    try:
        stepper, params = resolve_stepper_spec(method)
    except ValueError as exc:
        raise ValueError(f"unknown batch method {method!r}: {exc}") from None
    if stepper.name != "delta":
        return batch_stepper_loop(graph, sources, stepper=method, recorder=recorder)
    if params:
        raise ValueError(
            f"batch method {stepper.name!r} takes no spec params (got {method!r}); "
            "pass delta= directly"
        )
    if delta is None:
        delta = choose_delta(graph)
    return batch_fused_delta_stepping(graph, sources, delta)
