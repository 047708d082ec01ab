"""Sharded execution: graph partitioning + partition-parallel stepping.

The paper's task-parallel decomposition (Fig. 4) splits *work* inside one
address space; this package splits the *graph*.  A partitioner assigns
every vertex an owner shard and materializes per-shard CSR slices
(:mod:`repro.shard.partition`); the sharded stepper runs delta-stepping
per shard and moves boundary relaxations through a per-step frontier
exchange with min-combine delivery (:mod:`repro.shard.exchange`,
:mod:`repro.shard.stepper`).  The protocol is exactly what a
multi-machine deployment runs — the in-process and thread-pool
transports are rehearsals on one machine, and the exchange counts the
communication volume a wire would pay (the SHARD bench's headline
metric, next to speedup).

Module map
----------
==================================  =========================================
:mod:`~repro.shard.partition`       edge-cut partitioners (``contiguous``,
                                    ``bfs``), :class:`ShardedGraph` with
                                    per-shard CSR slices / owner map /
                                    halo edges
:mod:`~repro.shard.exchange`        outboxes, min-combine delivery,
                                    communication counters, pluggable
                                    transports (inline, worker pool)
:mod:`~repro.shard.stepper`         :class:`ShardedDeltaStepper` — the
                                    ``"sharded"`` member of
                                    :data:`repro.stepping.STEPPERS`
==================================  =========================================

Entry points::

    from repro.shard import partition_graph, ShardedDeltaStepper
    from repro.stepping import solve_with

    sg = partition_graph(graph, num_shards=4, partitioner="bfs")
    print(sg.cut_fraction)                       # partition quality
    res = solve_with("sharded", graph, 0, num_shards=4, partitioner="bfs")
    print(res.extra["entries_carried"])          # communication volume

Because ``"sharded"`` is a registered stepper, the service's batches
(``batch_delta_stepping(..., method="sharded")``), the service planner,
the auto-tuner, and the CLI all dispatch to it unchanged.  A service
pinned to it still repairs cached rows after a mutation with the
``delta`` stepper's Δ-bucket loop (:func:`repro.dynamic.repair_sssp`).
"""

from __future__ import annotations

from .exchange import (
    ExchangeStats,
    FrontierExchange,
    InProcessTransport,
    Outbox,
    PoolTransport,
    TRANSPORTS,
    Transport,
    make_transport,
)
from .partition import (
    PARTITIONERS,
    Shard,
    ShardedGraph,
    bfs_locality_partition,
    contiguous_partition,
    partition_graph,
    shard_graph,
)
from .stepper import (
    ShardedDeltaStepper,
    default_num_shards,
    sharded_delta_stepping,
    sharded_view,
)

__all__ = [
    "Shard",
    "ShardedGraph",
    "PARTITIONERS",
    "contiguous_partition",
    "bfs_locality_partition",
    "partition_graph",
    "shard_graph",
    "ExchangeStats",
    "Outbox",
    "FrontierExchange",
    "Transport",
    "InProcessTransport",
    "PoolTransport",
    "TRANSPORTS",
    "make_transport",
    "ShardedDeltaStepper",
    "sharded_delta_stepping",
    "default_num_shards",
    "sharded_view",
]
