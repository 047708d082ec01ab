"""Distance-query service: batch SSSP + cache + landmarks + server.

The throughput layer on top of the reproduction.  Where :mod:`repro.sssp`
answers "one source, one run", this package serves *query traffic*:

==========================  =================================================
:mod:`~repro.service.batch`      K-source SSSP as K single-source solves of
                                 one registered stepper (``delta``: the
                                 compiled Δ-bucket loop), rows stacked K×n
:mod:`~repro.service.cache`      LRU cache of full distance vectors, keyed
                                 on the graph's epoch
:mod:`~repro.service.landmarks`  ALT-style triangle-inequality bounds for
                                 breaker-degraded answers
:mod:`~repro.service.planner`    coalesces pending queries: dedupe, cache
                                 probe, batches of at most 64 sources
:mod:`~repro.service.server`     the synchronous request queue tying it all
                                 together, with latency percentiles and the
                                 ``mutate()`` entry point for dynamic graphs
==========================  =================================================

Entry points::

    from repro.service import batch_delta_stepping, QueryService, Query

    res = batch_delta_stepping(graph, sources=[0, 7, 42])   # K×n distances
    svc = QueryService(graph)
    print(svc.query(source=0, target=99).distance)
    svc.mutate(reweights=[(0, 99, 0.5)])   # repairs hot cache entries in place

``graph.epoch`` is the one staleness signal: it only grows, a mutation
batch bumps it, and so does ``svc.invalidate()`` after a raw edit.
"""

from __future__ import annotations

from .batch import BatchSSSPResult, batch_delta_stepping
from .cache import CacheStats, DistanceCache
from .landmarks import DistanceEstimate, LandmarkIndex, select_landmarks
from .planner import MAX_BATCH_SIZE, Query, QueryPlan, QueryPlanner
from .server import MutationReport, QueryResponse, QueryService, ServiceStats

__all__ = [
    "BatchSSSPResult",
    "batch_delta_stepping",
    "DistanceCache",
    "CacheStats",
    "LandmarkIndex",
    "DistanceEstimate",
    "select_landmarks",
    "MAX_BATCH_SIZE",
    "Query",
    "QueryPlan",
    "QueryPlanner",
    "QueryService",
    "QueryResponse",
    "MutationReport",
    "ServiceStats",
]
