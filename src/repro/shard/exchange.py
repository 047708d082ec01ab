"""The per-step frontier exchange: outboxes, min-combine delivery, transports.

Each superstep of the sharded stepper ends with one exchange round: every
shard has accumulated the relaxation requests that crossed its boundary
(``(target, candidate distance)`` pairs for vertices owned elsewhere),
and the exchange routes them to the owners, **min-combining on
delivery** — only a candidate that beats the owner's current tentative
distance is applied and re-activates the vertex.  Min is associative and
commutative, so routing order cannot change the result; that is what
keeps the sharded schedule on the same min-plus fixed point as every
other stepper.

Two cost-model pieces live here:

- :class:`Outbox` buffers are dense per-sender request arrays
  (scatter-min accumulation, the same ``np.minimum.at`` idiom as the
  ``scatter`` kernel), so duplicate candidates for one target collapse
  *before* they would cross a wire;
- :class:`ExchangeStats` counts what a real multi-machine transport
  would pay — posted candidates, deduplicated entries actually carried,
  applied improvements, and an estimated byte volume — the SHARD bench's
  communication-volume column.

Transports decide *where* the per-shard step functions run, and both
run them through the one barrier primitive,
:meth:`repro.parallel.pool.WorkerPool.run_batch`:
:class:`InProcessTransport` (spec ``inline``) on a one-thread pool that
executes inline (deterministic, zero dependencies), :class:`PoolTransport`
(spec ``threads[:N]``) on a shared multi-thread pool (NumPy kernels
release the GIL, so shard steps genuinely overlap).  Both run in one
address space, so a step that raises fails its superstep through the
pool's :class:`~repro.parallel.pool.BatchError`; there is no lost
dispatch to retry.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np
from numpy.typing import NDArray

from ..kernels import min_by_target
from ..parallel.pool import WorkerPool, get_pool
from ..sssp.result import INF

__all__ = [
    "ExchangeStats",
    "Outbox",
    "FrontierExchange",
    "Transport",
    "InProcessTransport",
    "PoolTransport",
    "TRANSPORTS",
    "make_transport",
]

#: bytes a wire transport would pay per delivered entry: one int64
#: vertex id + one float64 distance
ENTRY_BYTES = 16


@dataclass
class ExchangeStats:
    """Communication-volume counters for one sharded run.

    ``entries_posted`` counts raw cross-shard relaxation candidates,
    ``entries_carried`` the deduplicated (per-sender min-combined) pairs
    an actual wire would carry, ``entries_applied`` the deliveries that
    improved the owner's tentative distance.  ``exchanges`` counts flush
    rounds (one per superstep that had boundary traffic to move).

    Besides the aggregates, every flush round appends its own row —
    :meth:`per_superstep` — so the wire profile over the run's lifetime
    (the burst shape a real transport must absorb, ``bytes_carried``
    included) is inspectable, not just its sum.
    """

    exchanges: int = 0
    entries_posted: int = 0
    entries_carried: int = 0
    entries_applied: int = 0
    rounds: list[dict[str, int]] = field(default_factory=list)

    @property
    def bytes_carried(self) -> int:
        """Estimated wire volume of the carried entries."""
        return self.entries_carried * ENTRY_BYTES

    @property
    def dedup_ratio(self) -> float:
        """Carried over posted (1.0 = no outbox dedup win)."""
        return self.entries_carried / self.entries_posted if self.entries_posted else 1.0

    def as_dict(self) -> dict[str, int]:
        return {
            "exchanges": self.exchanges,
            "entries_posted": self.entries_posted,
            "entries_carried": self.entries_carried,
            "entries_applied": self.entries_applied,
            "bytes_carried": self.bytes_carried,
        }

    def record_round(self, posted: int, carried: int, applied: int) -> None:
        """Append one flush round's row (and fold it into the aggregates)."""
        self.exchanges += 1
        self.entries_posted += posted
        self.entries_carried += carried
        self.entries_applied += applied
        self.rounds.append(
            {
                "superstep": len(self.rounds),
                "entries_posted": posted,
                "entries_carried": carried,
                "entries_applied": applied,
                "bytes_carried": carried * ENTRY_BYTES,
            }
        )

    def per_superstep(self) -> list[dict]:
        """Per-flush-round breakdown, in superstep order.

        Each row carries ``superstep`` (0-based flush index) plus the
        same four volume keys as :meth:`as_dict`; summing any column
        over the rows reproduces the matching aggregate exactly (the
        rows *are* the aggregates' ledger — same increments, one row
        per round).
        """
        return [dict(row) for row in self.rounds]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ExchangeStats<{self.exchanges} exchanges, "
            f"{self.entries_carried}/{self.entries_posted} carried/posted, "
            f"{self.bytes_carried} bytes>"
        )


class Outbox:
    """One sender's accumulation buffer for cross-shard candidates.

    Dense over the global vertex space: posting scatter-mins into
    ``req``, so multiple candidates for one external target collapse to
    the best before the flush.  Only touched keys are reset, keeping a
    post linear in its candidate count.
    """

    def __init__(self, n: int) -> None:
        self.req: NDArray[np.float64] = np.full(n, INF, dtype=np.float64)
        self._touched: list[NDArray[np.int64]] = []
        #: raw candidates posted since the last drain; kept here (one
        #: writer: the owning shard's step) so concurrent shard steps
        #: never race on a shared counter
        self.posted = 0

    def post(self, targets: NDArray[np.int64], dists: NDArray[np.float64]) -> None:
        """Min-combine ``(targets, dists)`` candidates into the buffer."""
        if len(targets) == 0:
            return
        self.posted += len(targets)
        np.minimum.at(self.req, targets, dists)
        self._touched.append(np.asarray(targets, dtype=np.int64))

    def take(self) -> tuple[NDArray[np.int64], NDArray[np.float64]]:
        """Drain: the unique touched targets and their best candidates."""
        self.posted = 0
        if not self._touched:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
        keys = np.unique(np.concatenate(self._touched))
        vals = self.req[keys].copy()
        self.req[keys] = INF
        self._touched.clear()
        return keys, vals

    def __bool__(self) -> bool:
        return bool(self._touched)


class FrontierExchange:
    """The exchange endpoint shared by all shards of one run.

    Each shard posts into its own :class:`Outbox` (no cross-shard writes
    during a step, so the pool transport needs no locks); ``flush``
    routes every outbox to the owners, min-combines candidates across
    senders, applies the improvements to the authoritative distance
    array, and returns the vertices whose owners must re-activate them.
    """

    def __init__(self, num_shards: int, num_vertices: int) -> None:
        self.outboxes = [Outbox(num_vertices) for _ in range(num_shards)]
        self.stats = ExchangeStats()

    def post(
        self, shard_id: int, targets: NDArray[np.int64], dists: NDArray[np.float64]
    ) -> None:
        """Called from shard *shard_id*'s step: boundary candidates out.

        Concurrency-safe by construction, not by locking: each shard
        writes only its own outbox, and the aggregate counters are
        summed at :meth:`flush` (single-threaded, after the transport
        barrier).
        """
        self.outboxes[shard_id].post(targets, dists)

    def flush(self, dist: NDArray[np.float64]) -> NDArray[np.int64]:
        """One exchange round: deliver all outboxes, min-combine, apply.

        Returns the (sorted, unique) vertices whose tentative distance
        improved — the next step's incoming frontier.
        """
        posted = sum(box.posted for box in self.outboxes)
        pending = [box.take() for box in self.outboxes if box]
        if not pending:
            # a non-empty post always marks its outbox touched, so no
            # pending boxes means nothing was posted — no round to log
            return np.empty(0, dtype=np.int64)
        carried = sum(len(k) for k, _ in pending)
        if len(pending) == 1:
            keys, vals = pending[0]
        else:
            keys, vals = min_by_target(
                np.concatenate([k for k, _ in pending]),
                np.concatenate([v for _, v in pending]),
            )
        improved = vals < dist[keys]
        keys, vals = keys[improved], vals[improved]
        dist[keys] = vals
        self.stats.record_round(posted, carried, len(keys))
        return keys


class Transport(ABC):
    """Where per-shard step functions execute (a barrier per round).

    Failure contract: ``run`` either returns every fn's result or raises
    :class:`~repro.parallel.pool.BatchError` with per-task attribution
    when individual steps failed.  Partial results never escape
    silently.
    """

    name: str = "?"

    @abstractmethod
    def run(self, fns: Sequence[Callable[[], Any]]) -> list[Any]:
        """Execute the zero-argument *fns*, one per shard; barrier until
        all complete, results in submission order."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Transport<{self.name}>"


class InProcessTransport(Transport):
    """Sequential in-process execution — the deterministic reference.

    Runs the batch on a one-thread :class:`~repro.parallel.pool.WorkerPool`,
    which executes inline and carries the pool's failure contract: every
    fn runs to the (trivial) barrier, and failures aggregate into one
    :class:`~repro.parallel.pool.BatchError` instead of the first
    exception aborting the batch mid-way — the same semantics on every
    transport.
    """

    name = "inline"

    def __init__(self) -> None:
        self.pool = WorkerPool(1)

    def run(self, fns: Sequence[Callable[[], Any]]) -> list[Any]:
        result: list[Any] = self.pool.run_batch(fns)
        return result


class PoolTransport(Transport):
    """Shard steps on a shared :class:`~repro.parallel.pool.WorkerPool`.

    The pool comes from :func:`repro.parallel.pool.get_pool`, or is
    handed in by an embedder that manages its own workers
    (``transport=PoolTransport(pool)``), and is **not** owned: shutdown
    stays with whoever created it.
    """

    def __init__(self, pool: WorkerPool | None = None, num_threads: int = 4) -> None:
        self.pool = pool if pool is not None else get_pool(num_threads)
        self.name = f"threads[{self.pool.num_threads}]"

    def run(self, fns: Sequence[Callable[[], Any]]) -> list[Any]:
        result: list[Any] = self.pool.run_batch(fns)
        return result


def _make_inline(arg: str | None, spec: str) -> Transport:
    if arg is not None:
        raise ValueError(f"transport spec {spec!r}: 'inline' takes no argument")
    return InProcessTransport()


def _make_threads(arg: str | None, spec: str) -> Transport:
    if arg is None:
        return PoolTransport()
    try:
        n = int(arg)
    except ValueError:
        raise ValueError(
            f"transport spec {spec!r}: thread count must be an integer, got {arg!r}"
        ) from None
    if n < 1:
        raise ValueError(f"transport spec {spec!r}: thread count must be >= 1, got {n}")
    return PoolTransport(num_threads=n)


#: transport name → factory taking the optional ``:N`` argument; the
#: discovery surface of :func:`make_transport`.  ``threads`` takes an
#: optional thread count (``"threads:8"``).
TRANSPORTS: dict[str, Callable[[str | None, str], Transport]] = {
    "inline": _make_inline,
    "threads": _make_threads,
}


def make_transport(spec: Transport | str | None = None) -> Transport:
    """Resolve a transport from a spec string or instance.

    ``None`` and ``"inline"`` give :class:`InProcessTransport`;
    ``"threads"`` / ``"threads:N"`` give :class:`PoolTransport`; a
    :class:`Transport` instance passes through.  Raises ``ValueError``
    naming every registered transport on an unknown name, and naming the
    offending spec string on a bad thread count.
    """
    if isinstance(spec, Transport):
        return spec
    if spec is None:
        return InProcessTransport()
    text = str(spec)
    name, sep, arg = text.partition(":")
    try:
        factory = TRANSPORTS[name.strip()]
    except KeyError:
        raise ValueError(
            f"unknown transport {text!r}; known: {', '.join(TRANSPORTS)}"
        ) from None
    return factory(arg.strip() if sep else None, text)
