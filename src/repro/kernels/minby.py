"""Per-target min-reduction kernels: the relax step's one hot primitive.

Every delta/rho/radius/sharded stepper reduces a wave of relaxation
requests ``(target, candidate distance)`` to the best candidate per
target.  The repo's seed implementations all inlined the same
O(m log m) recipe — stable argsort by target, boundary detection,
``np.minimum.reduceat`` — once per solver.  This module is the single
shared implementation, with two interchangeable kernels:

``argsort``
    The seed recipe.  Allocation-light, cache-friendly for *thin* waves
    (few candidates relative to the key space), O(m log m).

``scatter``
    The O(m) path Dong et al. 2021 and Kranjčević et al. 2016 build
    their stepping kernels on: ``np.minimum.at`` scatter-mins the
    candidates into a dense per-target request vector owned by a
    :class:`~repro.kernels.workspace.RelaxWorkspace`, then compacts the
    touched targets (touched-mask scan for dense waves, sorted-unique
    for thin ones) and restores the all-``inf`` invariant by resetting
    only the touched keys.  No sort of the wave, ever.

Both kernels return identical arrays — min over a fixed candidate
multiset is order-independent and IEEE-exact, and both emit targets in
ascending order — so swapping kernels can never change a distance
(property-tested in ``tests/kernels``).  ``auto`` picks by wave density:
the scatter kernel's dense compaction pays an O(n) mask scan, so it
wins once the wave carries more than ~1/:data:`SCATTER_DENSITY` of the
key space and loses to the sort below that.  In the Δ-bucket loop
(:func:`repro.sssp.fused.run_buckets`) ``auto`` means more: the whole
loop runs compiled (:mod:`repro.kernels.compiled`) when the library
loaded, and this density pick applies only on the NumPy fallback;
``argsort`` and ``scatter`` always pin the NumPy loop.

Selection is threaded through stepper specs — ``"delta(kernel=scatter)"``,
``"rho(kernel=argsort)"`` — so the auto-tuner and the KERNEL bench can
race the kernels like any other knob.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
from numpy.typing import NDArray

from .workspace import INF, RelaxWorkspace

__all__ = [
    "KERNELS",
    "SCATTER_DENSITY",
    "check_kernel",
    "min_by_target",
    "min_by_target_sort",
    "min_by_target_scatter",
    "expand_rows",
    "gather_candidates",
]

#: density crossover: the scatter kernel is picked (and compacts via the
#: dense touched-mask scan) when ``candidates * SCATTER_DENSITY >= n``.
#: Measured on the CI suite: ``np.minimum.at`` beats the argsort path
#: down to waves ~1/64th of the key space; below that the O(n) scan and
#: the ufunc dispatch overhead lose to a small sort.
SCATTER_DENSITY = 64

#: the hot loops return these instead of allocating fresh empties — the
#: module-level pattern the ``hot-loop-alloc`` lint whitelists by name
_EMPTY_T: NDArray[np.int64] = np.empty(0, dtype=np.int64)
_EMPTY_D: NDArray[np.float64] = np.empty(0, dtype=np.float64)

#: shorthand for every kernel's ``(unique targets, best distances)`` pair
_MinPair = tuple[NDArray[np.int64], NDArray[np.float64]]


def min_by_target_sort(
    targets: NDArray[np.int64], dists: NDArray[np.float64]
) -> _MinPair:
    """Per-target minimum via stable argsort + ``minimum.reduceat``.

    The seed kernel, O(m log m); needs no workspace.  Deliberately *not*
    a ``# repro: hot`` block: its boundary mask is a fresh allocation by
    design (sized to the wave, not the key space), which is exactly the
    trade the scatter kernel exists to beat on dense waves.
    """
    if len(targets) == 0:
        return _EMPTY_T, _EMPTY_D
    order = np.argsort(targets, kind="stable")
    ts = targets[order]
    ds = dists[order]
    boundaries = np.empty(len(ts), dtype=bool)
    boundaries[0] = True
    np.not_equal(ts[1:], ts[:-1], out=boundaries[1:])
    starts = np.nonzero(boundaries)[0]
    best: NDArray[np.float64] = np.minimum.reduceat(ds, starts)
    return ts[starts], best


# repro: hot
def min_by_target_scatter(
    targets: NDArray[np.int64], dists: NDArray[np.float64], workspace: RelaxWorkspace
) -> _MinPair:
    """Per-target minimum via dense scatter-min, O(m).

    ``np.minimum.at`` folds the wave into ``workspace.req``; compaction
    is a touched-mask scan for dense waves (O(n), no sort) and a
    sorted-unique for thin ones (so a caller that pins ``scatter`` on a
    large graph never rescans the whole state for a sparse wave).  Only touched keys are reset, so the
    workspace invariant costs O(m), not O(n).
    """
    if len(targets) == 0:
        return _EMPTY_T, _EMPTY_D
    req = workspace.req
    try:
        np.minimum.at(req, targets, dists)
        if len(targets) * SCATTER_DENSITY < workspace.n:
            uts = np.unique(targets)
        else:
            touched = workspace.touched
            touched[targets] = True
            uts = np.nonzero(touched)[0]
        ubest = req[uts].copy()
    finally:
        # restore the full between-waves invariant (req all-inf, touched
        # all-False) even on an aborted wave — the workspace may be
        # graph-cached and outlive this solve
        req[targets] = INF
        workspace.touched[targets] = False
    return uts, ubest


#: kernel name → implementation; the discovery surface shared by
#: :func:`min_by_target`, stepper specs (``"delta(kernel=scatter)"``),
#: and the KERNEL bench.
KERNELS: dict[str, Callable[..., _MinPair]] = {
    "argsort": min_by_target_sort,
    "scatter": min_by_target_scatter,
}


def check_kernel(kernel: str) -> str:
    """Validate a kernel spelling early, with the registry enumerated."""
    if kernel != "auto" and kernel not in KERNELS:
        raise ValueError(
            f"unknown kernel {kernel!r}; known: auto, {', '.join(KERNELS)}"
        )
    return kernel


# repro: hot
def min_by_target(
    targets: NDArray[np.int64],
    dists: NDArray[np.float64],
    workspace: RelaxWorkspace | None = None,
    kernel: str = "auto",
) -> _MinPair:
    """Best candidate per target: ``(unique targets asc, min distances)``.

    ``kernel="auto"`` picks scatter for dense waves (when a workspace is
    available) and the argsort path otherwise; explicit names pin one.
    Both kernels return bit-identical arrays, so the choice is purely a
    throughput knob.
    """
    if check_kernel(kernel) == "auto":
        use_scatter = (
            workspace is not None
            and len(targets) * SCATTER_DENSITY >= workspace.n
        )
        kernel = "scatter" if use_scatter else "argsort"
    if kernel == "scatter":
        if workspace is None:
            raise ValueError("the scatter kernel needs a RelaxWorkspace")
        return min_by_target_scatter(targets, dists, workspace)
    return min_by_target_sort(targets, dists)


def expand_rows(
    indptr: NDArray[np.int64], rows: NDArray[np.int64]
) -> tuple[NDArray[np.int64], NDArray[np.int64]]:
    """CSR row expansion: ``(flat, lengths)`` for the given *rows*.

    ``flat`` indexes every edge-array entry belonging to *rows*, in row
    order; ``lengths`` is each row's edge count (so callers can
    ``np.repeat`` per-row values across their edges).  The shared
    expansion behind the partitioners, the shard slicer and incremental
    repair's support walk; the relax wave's :func:`gather_candidates`
    is its arena-backed hot twin.
    """
    starts = indptr[rows].astype(np.int64)
    lengths = (indptr[rows + 1] - indptr[rows]).astype(np.int64)
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), lengths
    offsets = np.repeat(np.cumsum(lengths) - lengths, lengths)
    flat: NDArray[np.int64] = np.arange(total, dtype=np.int64) - offsets + np.repeat(
        starts, lengths
    )
    return flat, lengths


# repro: hot
def gather_candidates(
    indptr: NDArray[np.int64],
    indices: NDArray[np.int64],
    weights: NDArray[np.float64],
    frontier: NDArray[np.int64],
    dist: NDArray[np.float64],
    workspace: RelaxWorkspace | None = None,
) -> tuple[NDArray[np.int64] | None, NDArray[np.float64] | None]:
    """All relaxation requests out of *frontier*: ``(targets, distances)``.

    The CSR row gather every stepper's relax wave starts with.  With a
    workspace, the three named wave outputs (flat edge index, targets,
    candidate distances) are written into the arena's reused buffers;
    the ``np.repeat`` offset expansions are the only per-wave
    temporaries left.  Returns ``(None, None)`` for an edgeless
    frontier.
    """
    starts = indptr[frontier]
    lengths = indptr[frontier + 1] - starts
    total = int(lengths.sum())
    if total == 0:
        return None, None
    offsets = np.repeat(np.cumsum(lengths) - lengths, lengths)
    if workspace is None:
        # repro: alloc-ok — the documented no-arena fallback pays fresh buffers
        flat = np.arange(total, dtype=np.int64) - offsets + np.repeat(starts, lengths)
        out_t: NDArray[np.int64] = indices[flat]
        out_d: NDArray[np.float64] = np.repeat(dist[frontier], lengths) + weights[flat]
        return out_t, out_d
    flat, targets, dists = workspace.wave_buffers(total)
    np.subtract(workspace.iota(total), offsets, out=flat)
    flat += np.repeat(starts, lengths)
    indices.take(flat, out=targets)
    weights.take(flat, out=dists)
    dists += np.repeat(dist[frontier], lengths)
    return targets, dists
