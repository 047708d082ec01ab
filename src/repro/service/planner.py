"""Query planning: coalesce pending queries into batches of exact solves.

The planner is the pure-decision half of the service (the server executes
the plan).  Given the pending queries it:

1. deduplicates sources — fifty point queries from one source need one
   distance vector;
2. answers whatever the cache already holds;
3. packs the remaining sources into batches of at most
   :data:`MAX_BATCH_SIZE` (each solved as one single-source solve per
   source, :func:`repro.service.batch.batch_delta_stepping`), stamped
   with the caller's pinned exact-solve stepper, if any.  An unpinned
   plan is routed by the server: through the auto-tuner's pick for the
   graph's current epoch, when it has a tuner, else ``delta``.

Keeping this logic free of I/O and timing makes it unit-testable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["MAX_BATCH_SIZE", "Query", "QueryPlan", "QueryPlanner"]

#: upper bound on the K of one batch solve (bounds its K×n result matrix)
MAX_BATCH_SIZE = 64


@dataclass(frozen=True)
class Query:
    """One request: distances from *source* to *target* (or to everything).

    ``target=None`` asks for the full one-to-many distance vector.
    ``request_id`` names the request for tracing —
    :meth:`QueryService.submit` assigns one (``q-NNNNNN``) when the
    caller didn't, and the service stamps it onto every span the request
    produces, down to the sharded stepper's per-shard work.
    """

    source: int
    target: int | None = None
    request_id: str | None = None


@dataclass
class QueryPlan:
    """The planner's decision, in source granularity.

    ``cached`` carries the distance arrays the cache probe already
    fetched (probing and fetching are one operation — the server must
    not re-fetch, both for honest hit counting and because a shared
    cache could evict between plan and execution); ``batches`` are
    source groups to hand to the batch solver.  ``stepper`` is the
    algorithm of the exact solves: the caller's pin, or ``None``, which
    the server fills with its tuner's pick or reads as ``delta``.
    """

    cached: dict[int, "np.ndarray"] = field(default_factory=dict)
    batches: list[np.ndarray] = field(default_factory=list)
    stepper: str | None = None

    @property
    def num_exact_sources(self) -> int:
        return sum(len(b) for b in self.batches)


class QueryPlanner:
    """Routes queries between the cache and the batch solver.

    Parameters
    ----------
    stepper:
        Pin the exact-solve algorithm to one stepping-registry spec —
        a name or a parameterized form like ``"sharded(shards=4)"``
        (stamped onto every plan).  ``None`` leaves the choice to the
        server.  A pin encodes caller intent, not measurement, so no
        mutation moves it.
    """

    def __init__(self, stepper: str | None = None):
        self.stepper = stepper

    # -- planning ----------------------------------------------------------

    def plan(self, queries, cache=None, graph=None, weight_mode: str = "unit") -> QueryPlan:
        """Coalesce *queries* into a :class:`QueryPlan`.

        ``cache``/``graph`` enable the cache probe (either may be ``None``
        for a cold plan).
        """
        plan = QueryPlan(stepper=self.stepper)
        exact: list[int] = []
        for s in dict.fromkeys(int(q.source) for q in queries):
            hit = cache.get(graph, s, weight_mode) if cache is not None and graph is not None else None
            if hit is not None:
                plan.cached[s] = hit
            else:
                exact.append(s)
        for lo in range(0, len(exact), MAX_BATCH_SIZE):
            plan.batches.append(
                np.asarray(exact[lo : lo + MAX_BATCH_SIZE], dtype=np.int64)
            )
        return plan
