"""``repro.kernels`` — the shared zero-allocation relaxation-kernel core.

The one implementation of the hot primitives every stepper in this repo
is built from, extracted from the per-solver copies that used to live in
``sssp/fused.py``, ``sssp/meyer_sanders.py``, ``sssp/reference.py``
and ``shard/``:

=====================================  ====================================
:mod:`~repro.kernels.minby`            per-target min-reduction kernels —
                                       the seed ``argsort`` path and the
                                       O(m) dense ``scatter`` path — one
                                       registry (:data:`KERNELS`), density
                                       ``auto`` pick, spec-overridable
                                       (``"delta(kernel=scatter)"``); plus
                                       the shared CSR candidate gather and
                                       row expansion
:mod:`~repro.kernels.workspace`        :class:`RelaxWorkspace` — the
                                       reusable buffer arena (request
                                       vector + touched mask, wave
                                       buffers, iota ramp) that makes
                                       steady-state phases allocation-free,
                                       one per solve; the per-graph row-id
                                       cache (:func:`cached_row_ids`)
:mod:`~repro.kernels.bucketq`          :class:`BucketQueue` — the lazy
                                       bucket index that replaces the
                                       per-bucket full-``t`` scans in the
                                       classic Δ-stepper's outer loop
:mod:`~repro.kernels.compiled`         the whole Δ-bucket loop in plain C
                                       (``buckets.c``), built at import
                                       with the system C compiler into a
                                       per-user cache and called through
                                       ``ctypes``; what
                                       :func:`repro.sssp.fused.run_buckets`
                                       runs for ``kernel="auto"``
=====================================  ====================================

The package sits *below* every solver layer (it imports only NumPy and
the standard library), so ``sssp``, ``stepping``, ``shard``,
``service``, and ``dynamic`` all depend on it without cycles.  The
NumPy primitives stay the fallback when no C compiler runs and the
oracle the compiled loop is tested against: both give the same
distances and the same four work counters.  The KERNEL bench
(``repro kernel-bench``) races the kernels against the frozen seed
implementation and gates on bit-identity with Dijkstra; its ``auto``
row runs the compiled loop.
"""

from __future__ import annotations

from .bucketq import BucketQueue
from .minby import (
    KERNELS,
    SCATTER_DENSITY,
    check_kernel,
    expand_rows,
    gather_candidates,
    min_by_target,
    min_by_target_scatter,
    min_by_target_sort,
)
from .workspace import RelaxWorkspace, cached_row_ids

__all__ = [
    "BucketQueue",
    "KERNELS",
    "SCATTER_DENSITY",
    "check_kernel",
    "expand_rows",
    "gather_candidates",
    "min_by_target",
    "min_by_target_scatter",
    "min_by_target_sort",
    "RelaxWorkspace",
    "cached_row_ids",
]
