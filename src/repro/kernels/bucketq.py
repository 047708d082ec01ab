"""A lazy bucket queue: the Δ-stepper's outer loop without full scans.

The seed ``fused_delta_stepping`` found each next bucket by rescanning
all *n* tentative distances — ``isfinite(t) & (t >= iΔ)`` plus a min and
a window filter, every bucket — so graphs with many thin buckets (road
meshes, the paper's hardest case) paid O(n · buckets) just to *schedule*
the work.  :class:`BucketQueue` replaces the scans with the standard
lazy bucket index (Meyer & Sanders' ``B[i]`` sets, engineered the way
Dong et al. 2021 engineer their batched PQ):

- every distance improvement is **pushed** with its bucket id
  ``⌊d/Δ⌋`` — an O(improved) append, no global state touched;
- ``pop_bucket`` pops the smallest bucket id off a heap, concatenates
  that bucket's pending chunks, and **lazily validates** against the
  current distances: an entry whose distance has since improved into an
  earlier bucket is simply dropped (its improvement pushed a fresh entry
  there), so no decrease-key ever happens.

It schedules the NumPy back end of the shared Δ-bucket loop
(:func:`repro.sssp.fused.run_buckets`) of single-source solves and
repair.

Work is O(pushes log buckets) overall instead of O(n) per bucket, and
the frontier a pop returns is exactly the set the seed's window scan
produced (same ascending order), which is what keeps the phase,
relaxation, and update counters bit-compatible with the scan-based
implementations.  Non-empty buckets match too; the scan could
additionally visit (and count) phantom *empty* buckets where its
division-based index misrounds against its product-based window — the
queue, like the Meyer–Sanders reference, never schedules an empty
bucket.
"""

from __future__ import annotations

import heapq

import numpy as np
from numpy.typing import NDArray

__all__ = ["BucketQueue", "sort_unique"]

_EMPTY: NDArray[np.int64] = np.empty(0, dtype=np.int64)


def sort_unique(keys: NDArray[np.int64]) -> NDArray[np.int64]:
    """``np.unique(keys)`` by an in-place sort and compare — an order of
    magnitude faster than recent NumPy's hashing ``np.unique`` on
    10⁵-key frontiers."""
    keys.sort()
    keep = np.empty(len(keys), dtype=bool)
    keep[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    return keys[keep]


class BucketQueue:
    """Pending vertices indexed by distance bucket ``[iΔ, (i+1)Δ)``.

    Entries are *hints*, validated lazily at pop time against the
    authoritative distance array — the structure never needs to find or
    remove a stale entry eagerly.
    """

    def __init__(self, delta: float) -> None:
        if delta <= 0:
            raise ValueError("delta must be positive")
        self.delta = float(delta)
        self._heap: list[int] = []
        self._members: dict[int, list[NDArray[np.int64]]] = {}

    def __bool__(self) -> bool:
        return bool(self._heap)

    def push(self, vertices: NDArray[np.int64], dists: NDArray[np.float64]) -> None:
        """File *vertices* under the buckets of their (new) *dists*.

        Duplicates across pushes are fine (deduped at pop); distances
        must be finite.
        """
        if len(vertices) == 0:
            return
        fidx = np.floor_divide(dists, self.delta)
        if not float(fidx.max()) < 2**62:
            # int64 bucket ids stop here; fail loudly instead of wrapping
            raise OverflowError(
                "distance/delta ratio too large for bucket indexing "
                f"(max {float(fidx.max())!r}); increase delta"
            )
        idx = fidx.astype(np.int64)
        # floor_divide misrounds at bucket boundaries, and once d/Δ grows
        # past 2^53 its error can exceed ±1.  Walk each index — in INTEGER
        # steps, which always advance even where the float products are
        # ulp-starved and b*Δ == (b+1)*Δ — to the fixed point of the
        # invariant  idx*Δ <= d < (idx+1)*Δ  under the EXACT float
        # expressions pop_bucket (and the steppers' window filters) use:
        # `b * Δ` and `(b + 1) * Δ`, never the 1-ulp-different `lo + Δ`.
        # The products are monotone in the index, so a satisfying index
        # always exists; both walks take one step outside the ulp-starved
        # regime and stay bounded (≲ ulp(d)/Δ ≤ 2^11 for int64-valid
        # ratios) inside it.  Running the lower walk first means the
        # upper walk preserves its invariant.
        while True:
            over = idx.astype(np.float64) * self.delta > dists
            if not over.any():
                break
            idx[over] -= 1
        while True:
            under = (idx + 1).astype(np.float64) * self.delta <= dists
            if not under.any():
                break
            idx[under] += 1
        mn = int(idx.min())
        if int(idx.max()) == mn:
            # the common case — a relax wave's out-of-window improvements
            # land in one bucket — skips the unique/select machinery
            self._file(mn, vertices)
        else:
            for b in np.unique(idx):
                self._file(int(b), vertices[idx == b])

    def push_into(self, bucket: int, vertices: NDArray[np.int64]) -> None:
        """File *vertices* directly under *bucket* (no per-entry indexing).

        For callers that know the bucket analytically — a Δ-stepper's
        light-phase improvements that leave window ``i`` always land in
        bucket ``i + 1`` (weight ≤ Δ from a distance < (i+1)Δ) — this
        skips the floor-divide entirely.  Safe even if an entry later
        improves away: pop-time validation drops stale hints.
        """
        if len(vertices):
            self._file(bucket, vertices)

    def _file(self, b: int, chunk: NDArray[np.int64]) -> None:
        pending = self._members.get(b)
        if pending is None:
            self._members[b] = [chunk]
            heapq.heappush(self._heap, b)
        else:
            pending.append(chunk)

    def pop_bucket(
        self, dist: NDArray[np.float64]
    ) -> tuple[int | None, NDArray[np.int64]]:
        """Extract the next non-empty bucket: ``(index, frontier)``.

        The frontier is deduped, ascending, and validated against *dist*
        using the same ``[bΔ, (b+1)Δ)`` float expressions the steppers
        window with.  An entry below the window is stale — its
        improvement filed a fresh entry in an earlier bucket — and is
        dropped; an entry at or above the window's top (possible only
        through float rounding of an analytic ``push_into`` hint) is
        **refiled** under its true bucket, never dropped, so no live
        vertex can ever be lost to a 1-ulp boundary disagreement.
        Returns ``(None, empty)`` when no pending work remains.
        """
        while self._heap:
            b = heapq.heappop(self._heap)
            chunks = self._members.pop(b, None)
            if not chunks:
                continue
            if len(chunks) == 1:
                verts = chunks[0]
            else:
                verts = sort_unique(np.concatenate(chunks))
            lo = b * self.delta
            hi = (b + 1) * self.delta
            d = dist[verts]
            late = d >= hi
            if late.any():
                self.push(verts[late], d[late])
            valid = (d >= lo) & ~late
            if not valid.all():
                verts = verts[valid]
            if len(verts):
                return b, verts
        return None, _EMPTY

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BucketQueue<delta={self.delta}, {len(self._heap)} pending buckets>"
