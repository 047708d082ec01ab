"""An LRU cache of full distance vectors, keyed by (graph, source, weights).

One SSSP run answers *every* point query from its source, so the natural
cache unit is the whole distance array.  Keys are ``(id(graph),
graph.epoch, source, weight_mode)``: any edit bumps the epoch (the
version of the graph's arrays), retiring every cache's rows at once, and
each cache frees a graph's older rows the next time it is asked about
that graph; the weight mode is there because one catalog graph is
routinely queried under both unit and distribution weights.

Cached arrays are stored read-only: handing out a mutable view of a
shared answer would let one caller corrupt every later hit.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict, deque
from dataclasses import dataclass

import numpy as np

from ..graphs.graph import Graph

__all__ = ["CacheStats", "DistanceCache"]


@dataclass(frozen=True)
class CacheStats:
    """Counters since construction (or the last :meth:`DistanceCache.clear`)."""

    hits: int
    misses: int
    evictions: int
    invalidations: int
    size: int
    capacity: int

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CacheStats<{self.size}/{self.capacity} entries, "
            f"hit_rate={self.hit_rate:.2%} ({self.hits}h/{self.misses}m), "
            f"evictions={self.evictions}>"
        )


class DistanceCache:
    """LRU map ``(graph, epoch, source, weight_mode) → distance array``.

    Thread-safe (one lock around the ordered map — lookups are tiny next
    to the SSSP runs they save).  Graph identity is ``id(graph)`` paired
    with the graph's ``epoch``, which only grows: an entry of an earlier
    epoch never matches again, so the first :meth:`get`, :meth:`put` or
    :meth:`take_entries` that sees a graph at a newer epoch drops its
    older rows (:meth:`invalidate` drops them all at once).  A
    weak reference per graph drops its entries when the graph is
    garbage-collected (which also protects against ``id`` reuse).  The
    cache holds those references, so they die with it: a long-lived
    graph served by many short-lived caches keeps no callback per dead
    cache.  The callback can fire from the garbage collector at any
    allocation point — possibly while this very cache holds its lock —
    so it only *enqueues* the dead id; the locked public methods purge
    the queue.
    """

    def __init__(self, capacity: int = 128, metrics=None):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._entries: OrderedDict[tuple, np.ndarray] = OrderedDict()
        # gid -> (weak ref to the graph, the newest epoch seen of it)
        self._watches: dict[int, tuple[weakref.ref, int]] = {}
        self._dead_gids: deque[int] = deque()  # filled lock-free by their callbacks
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._invalidations = 0
        self._metrics = metrics  # a repro.obs MetricsRegistry, or None

    # -- metrics mirror ----------------------------------------------------

    def bind_metrics(self, metrics) -> None:
        """Mirror the counters into a :class:`repro.obs.MetricsRegistry`.

        ``cache.hits`` / ``cache.misses`` / ``cache.evictions`` /
        ``cache.invalidations`` counters plus a ``cache.size`` gauge.
        A no-op when a registry is already bound (the first binding
        wins, so a shared cache is not double-counted).
        """
        if self._metrics is None and metrics is not None:
            self._metrics = metrics

    def _tick(self, name: str, amount: int = 1) -> None:
        if self._metrics is not None:
            self._metrics.inc(name, amount)

    def _gauge_size(self) -> None:
        if self._metrics is not None:
            self._metrics.set_gauge("cache.size", len(self._entries))

    # -- graph identity ----------------------------------------------------

    def _graph_token(self, graph: Graph) -> tuple[int, int]:
        """``(id, epoch)`` of *graph*, watched from its first sight; at a
        newer epoch than last seen, its older rows are dropped (called
        under the lock)."""
        gid, epoch = id(graph), graph.epoch
        watch = self._watches.get(gid)
        if watch is None:
            dead = self._dead_gids
            ref = weakref.ref(graph, lambda _, gid=gid: dead.append(gid))
            self._watches[gid] = (ref, epoch)
        elif watch[1] != epoch:
            for key in [k for k in self._entries if k[0] == gid and k[1] != epoch]:
                del self._entries[key]
            self._watches[gid] = (watch[0], epoch)
            self._gauge_size()
        return gid, epoch

    def _purge_dead(self) -> None:
        """Drop entries of collected graphs (called under the lock)."""
        while self._dead_gids:
            gid = self._dead_gids.popleft()
            self._watches.pop(gid, None)
            for key in [k for k in self._entries if k[0] == gid]:
                del self._entries[key]

    # -- the cache proper --------------------------------------------------

    def get(self, graph: Graph, source: int, weight_mode: str = "unit") -> np.ndarray | None:
        """The cached distance array, or ``None`` on a miss."""
        with self._lock:
            self._purge_dead()
            key = (*self._graph_token(graph), int(source), weight_mode)
            dist = self._entries.get(key)
            if dist is None:
                self._misses += 1
                self._tick("cache.misses")
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            self._tick("cache.hits")
            return dist

    def put(self, graph: Graph, source: int, weight_mode: str, distances: np.ndarray) -> np.ndarray:
        """Insert (or refresh) one distance array; returns the stored view."""
        dist = np.asarray(distances, dtype=np.float64)
        if dist.ndim != 1 or len(dist) != graph.num_vertices:
            raise ValueError(
                f"expected a length-{graph.num_vertices} distance array, got shape {dist.shape}"
            )
        dist = dist.copy()
        dist.flags.writeable = False
        with self._lock:
            self._purge_dead()
            key = (*self._graph_token(graph), int(source), weight_mode)
            self._entries[key] = dist
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self._evictions += 1
                self._tick("cache.evictions")
            self._gauge_size()
        return dist

    def invalidate(self, graph: Graph) -> int:
        """Drop every entry of *graph*, of any epoch; returns how many.

        Staleness needs no call here — an edit bumps ``graph.epoch``,
        which is part of the key — so this only frees the rows early.
        Only *real* invalidations — calls that actually dropped entries —
        are counted in :class:`CacheStats`, so the counter stays truthful
        for graphs the cache has never seen.
        """
        with self._lock:
            self._purge_dead()
            gid = id(graph)
            stale = [k for k in self._entries if k[0] == gid]
            for key in stale:
                del self._entries[key]
            if stale:
                self._invalidations += 1
                self._tick("cache.invalidations")
                self._gauge_size()
            return len(stale)

    def take_entries(self, graph: Graph) -> dict[tuple[int, str], np.ndarray]:
        """Remove and return *graph*'s **current-epoch** entries as
        ``{(source, weight_mode): distances}``.

        The mutation path harvests the hot entries *before* mutating,
        repairs them against the new topology, and re-puts them under the
        new epoch — answers move forward rather than going stale, so this
        is not counted as an invalidation.  Only entries matching the
        graph's *current* token qualify: anything parked under an older
        epoch describes a graph that no longer exists and would poison a
        repair if handed out as a baseline (:meth:`_graph_token` has
        already dropped it).  The returned arrays are the stored
        read-only views.
        """
        with self._lock:
            self._purge_dead()
            token = self._graph_token(graph)
            taken = {
                (key[2], key[3]): self._entries.pop(key)
                for key in [k for k in self._entries if k[:2] == token]
            }
            self._gauge_size()
            return taken

    def clear(self) -> None:
        """Drop all entries and reset the counters."""
        with self._lock:
            self._entries.clear()
            self._hits = self._misses = self._evictions = self._invalidations = 0
            self._gauge_size()

    def __len__(self) -> int:
        with self._lock:
            self._purge_dead()
            return len(self._entries)

    def stats(self) -> CacheStats:
        with self._lock:
            self._purge_dead()
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                invalidations=self._invalidations,
                size=len(self._entries),
                capacity=self.capacity,
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DistanceCache<{len(self._entries)}/{self.capacity}>"
