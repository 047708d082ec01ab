"""The partition-parallel sharded stepper: per-shard Δ-waves + exchange.

One more member of the :data:`repro.stepping.STEPPERS` family, with the
schedule decomposed **over partitions** (SSSP-Del's architecture, on the
stepping contract PR 3 fixed):

1. a global window ``[min, min + Δ]`` anchors at the smallest active
   tentative distance (the Δ*-style sliding window — every superstep is
   non-empty by construction);
2. every shard pops its *owned* in-window frontier and runs the shared
   relax core (:func:`repro.stepping.base.relax_window`) over its
   full-height CSR slice to local quiescence — in-window improvements of
   internal targets re-relax immediately, out-of-window ones re-activate
   for a later superstep, and boundary targets (owned by another shard)
   are routed into the shard's outbox;
3. one frontier exchange per superstep routes the outboxes,
   min-combines candidates across senders, and re-activates the owners'
   improved vertices (:mod:`repro.shard.exchange`).

Shards never write outside their owned vertex range during a step, so
the per-shard step functions run on any transport — inline, or fanned
out on a :class:`~repro.parallel.pool.WorkerPool` where the NumPy
kernels overlap for real.  Distances still converge to the unique
min-plus fixed point (every write is a min of ``d[u] ⊕ w`` terms, and
IEEE min is order-independent), so the result is **bit-identical** to
Dijkstra — the same exactness contract every other stepper carries, now
held across partition boundaries.  With one shard there is no
boundary, and a superstep is exactly a Δ*-stepping step:
``sharded(shards=1)`` walks Δ*'s schedule, counter for counter.

``solve`` is ``resolve`` seeded with ``{source: 0}``; ``resolve`` runs
the schedule from any seeded state, which is how the race checker
(:mod:`repro.analysis.racecheck`) drives one sharded run.  The service's
batches dispatch to the sharded backend unchanged.
"""

from __future__ import annotations

from contextlib import nullcontext
from functools import partial

import numpy as np

from ..graphs.graph import Graph
from ..kernels import RelaxWorkspace, check_kernel
from ..sssp.result import INF, SSSPResult
from ..stepping.base import (
    Stepper,
    int_knob,
    new_counters,
    positive_knob,
    register_stepper,
    relax_window,
)
from ..stepping.delta_star import default_delta_star
from .exchange import FrontierExchange, make_transport
from .partition import PARTITIONERS, ShardedGraph, partition_graph

__all__ = ["ShardedDeltaStepper", "sharded_delta_stepping", "default_num_shards", "sharded_view"]

#: key in ``graph.meta`` caching partitioned views per (shards,
#: partitioner); entries are dropped when the graph's epoch moves past
#: them, and the cache's lifetime is the graph's own
_VIEW_CACHE_KEY = "_shard_views"

#: the disabled-recorder stand-in for a ``recorder.span(...)`` context
_NO_SPAN = nullcontext()


def default_num_shards(graph: Graph) -> int:
    """Shard-count heuristic: up to 4 shards, never more than n/2.

    Four matches the coarse-task widths the paper measures (Fig. 4); the
    n/2 guard keeps degenerate graphs from paying pure protocol
    overhead.  The auto-tuner races explicit shard counts on top.
    """
    return max(1, min(4, graph.num_vertices // 2))


def sharded_view(graph: Graph, num_shards: int, partitioner: str) -> ShardedGraph:
    """The cached partitioned view of *graph* (rebuilt after mutations).

    Views are memoized in ``graph.meta`` so repeated solves (tuner
    probes, benches, the service's batch loop) pay the O(V+E) partition
    once per ``(num_shards, partitioner, epoch)``.
    """
    views = graph.meta.setdefault(_VIEW_CACHE_KEY, {})
    key = (num_shards, partitioner)
    hit = views.get(key)
    # Graph.copy() and with_weights() drop `_`-prefixed meta keys, so a
    # copy starts without views; the identity check only guards a Graph
    # built by hand around another graph's meta dict
    if hit is not None and hit.graph is graph and not hit.is_stale():
        return hit
    del hit  # a stale view must not live on through the rebuild below
    if any(v.is_stale() for v in views.values()):
        # an epoch bump: every cached view is stale, not just this
        # key's — drop them all before building, rather than hold two
        views.clear()
    view = partition_graph(graph, num_shards, partitioner)
    views[key] = view
    return view


def sharded_delta_stepping(
    graph: Graph,
    source: int,
    delta: float | None = None,
    num_shards: int | None = None,
    partitioner: str = "contiguous",
    transport=None,
) -> SSSPResult:
    """Run sharded delta-stepping SSSP from *source* (defaults: auto Δ,
    :func:`default_num_shards`, contiguous partitioning, inline transport)."""
    return ShardedDeltaStepper().solve(
        graph, source, delta=delta, num_shards=num_shards,
        partitioner=partitioner, transport=transport,
    )


class ShardedDeltaStepper(Stepper):
    """The partition-parallel member of the framework (see module docstring)."""

    name = "sharded"
    kind = "sharded"
    description = "partition-parallel delta-stepping, per-step frontier exchange"
    spec_param_aliases = {"shards": "num_shards"}

    def solve(
        self,
        graph: Graph,
        source: int,
        delta: float | None = None,
        num_shards: int | None = None,
        partitioner: str = "contiguous",
        transport=None,
        sharded: ShardedGraph | None = None,
        kernel: str = "auto",
        recorder=None,
    ) -> SSSPResult:
        n = graph.num_vertices
        if not 0 <= source < n:
            raise IndexError(f"source {source} out of range [0, {n})")
        dist = np.full(n, INF, dtype=np.float64)
        dist[source] = 0.0
        active = np.zeros(n, dtype=bool)
        active[source] = True
        with (
            recorder.span("solve:sharded", stepper=self.name, source=int(source))
            if recorder
            else _NO_SPAN
        ):
            counters = self.resolve(
                graph, dist, active, delta=delta, num_shards=num_shards,
                partitioner=partitioner, transport=transport, sharded=sharded,
                kernel=kernel, recorder=recorder,
            )
        result = SSSPResult(
            distances=dist,
            source=source,
            delta=float(counters["params"]["delta"]),
            method="sharded",
            buckets_processed=counters["steps"],
            phases=counters["phases"],
            relaxations=counters["relaxations"],
            updates=counters["updates"],
        )
        result.extra.update(counters["params"])
        result.extra.update(counters["comm"])
        return result

    def resolve(
        self,
        graph: Graph,
        dist: np.ndarray,
        active: np.ndarray,
        delta: float | None = None,
        num_shards: int | None = None,
        partitioner: str = "contiguous",
        transport=None,
        sharded: ShardedGraph | None = None,
        kernel: str = "auto",
        recorder=None,
    ) -> dict:
        """Run the sharded schedule from a seeded state to quiescence.

        Besides the standard work counters, the returned dict carries
        ``"params"`` (the resolved Δ/shard/partitioner/transport choices)
        and ``"comm"`` (the exchange's communication-volume counters) —
        extra keys the framework consumers ignore and the SHARD bench
        reads.

        A shard step that raises fails the whole resolve: the transport
        raises :class:`~repro.parallel.pool.BatchError` naming the
        failed step indices, and no partial distances are returned as
        an answer.  Each call allocates its own per-shard relaxation
        arenas, so concurrent resolves on one graph share no scratch.

        A truthy *recorder* gets three span layers per superstep: one
        ``superstep`` span (window bound, phase count, re-activations),
        one ``shard-step`` span per shard — emitted from whatever thread
        the transport ran the step on, so pooled runs show real overlap
        in the trace — and one ``exchange`` span carrying this round's
        :class:`~repro.shard.exchange.ExchangeStats` deltas.
        """
        delta = positive_knob("delta", delta if delta is not None else default_delta_star(graph))
        check_kernel(kernel)
        if partitioner not in PARTITIONERS:
            raise ValueError(
                f"unknown partitioner {partitioner!r}; known: {', '.join(PARTITIONERS)}"
            )
        if sharded is not None:
            if sharded.graph is not graph:
                raise ValueError("sharded view was built for a different graph")
            if sharded.is_stale():
                raise ValueError(
                    "sharded view is stale (graph mutated since it was built); "
                    "rebuild with partition_graph or use sharded_view()"
                )
            sg = sharded
        else:
            k = num_shards if num_shards is not None else default_num_shards(graph)
            sg = sharded_view(graph, int_knob("num_shards", k), partitioner)

        tr = make_transport(transport)
        ex = FrontierExchange(sg.num_shards, graph.num_vertices)
        owner = sg.owner
        mask = active.astype(bool, copy=True)
        active[:] = False  # consumed: the supersteps work on the copy
        counters = new_counters()
        # one workspace per shard, owned by this call: steps run
        # concurrently on pooled transports, and the gather's wave
        # buffers and the scatter kernel's dense request vector must have
        # a single writer (same ownership rule as the outboxes).  The
        # argsort pin skips the arenas (its gathers pay fresh buffers).
        if kernel == "argsort":
            shard_ws = None
        else:
            shard_ws = [RelaxWorkspace(graph.num_vertices) for _ in sg.shards]

        def route(shard_id, targets, cand):
            """Keep the wave's owned targets; post the rest to the outbox."""
            internal = owner[targets] == shard_id
            external = ~internal
            ext_t = targets[external]
            if len(ext_t):
                ext_d = cand[external]
                # pre-filter against the owner's tentative distance: a
                # concurrently-improving read only under-filters (the
                # owner min-combines again on delivery), never drops a
                # real improvement — distances are monotone
                keep = ext_d < dist[ext_t]
                ex.post(shard_id, ext_t[keep], ext_d[keep])
            return targets[internal], cand[internal]

        def shard_step(shard, bound):
            """One shard's superstep: pop owned in-window work, relax its
            CSR slice to local quiescence, post boundary candidates."""
            if recorder:
                with recorder.span("shard-step", shard=int(shard.id)) as sp:
                    c = _shard_step(shard, bound)
                    sp.set(**c)
                return c
            return _shard_step(shard, bound)

        # repro: hot
        def _shard_step(shard, bound):
            c = {"phases": 0, "relaxations": 0, "updates": 0}
            owned = shard.owned
            batch = owned[mask[owned] & (dist[owned] <= bound)]
            mask[batch] = False
            relax_window(
                shard.indptr, shard.indices, shard.weights, batch, bound, dist, mask, c,
                shard_ws[shard.id] if shard_ws is not None else None, kernel,
                route=partial(route, shard.id),
            )
            return c

        while mask.any():
            peek = float(dist[mask].min())
            if not np.isfinite(peek):
                # active vertices at inf can never improve a neighbor
                break
            bound = peek + delta
            counters["steps"] += 1
            p0 = counters["phases"]
            with (
                recorder.span("superstep", step=int(counters["steps"]), bound=float(bound))
                if recorder
                else _NO_SPAN
            ) as sspan:
                per_shard = tr.run(
                    [_bind_step(shard_step, shard, bound) for shard in sg.shards]
                )
                for c in per_shard:
                    counters["phases"] += c["phases"]
                    counters["relaxations"] += c["relaxations"]
                    counters["updates"] += c["updates"]
                if recorder:
                    pre = ex.stats.as_dict()
                    with recorder.span("exchange", step=int(counters["steps"])) as xspan:
                        incoming = ex.flush(dist)
                    xspan.set(**{k: ex.stats.as_dict()[k] - v for k, v in pre.items()})
                else:
                    incoming = ex.flush(dist)
                counters["updates"] += len(incoming)
                mask[incoming] = True
                if sspan is not None:
                    sspan.set(phases=counters["phases"] - p0, activated=int(len(incoming)))

        counters["params"] = {
            "delta": float(delta),
            "kernel": kernel,
            "shards": sg.num_shards,
            "partitioner": sg.partitioner,
            "transport": tr.name,
            "cut_edges": sg.num_cut_edges,
            "cut_fraction": sg.cut_fraction,
        }
        if recorder:
            # aggregate counters next to the spans: the serving tier's
            # slow-query log snapshots these as per-round deltas
            comm = ex.stats.as_dict()
            recorder.inc("sharded.supersteps", int(counters["steps"]))
            recorder.inc("sharded.relaxations", int(counters["relaxations"]))
            recorder.inc("sharded.exchange.rounds", int(comm["exchanges"]))
            recorder.inc(
                "sharded.exchange.entries_carried", int(comm["entries_carried"])
            )
        counters["comm"] = ex.stats.as_dict()
        counters["comm"]["per_superstep"] = ex.stats.per_superstep()
        return counters

    def default_params(self, graph: Graph) -> dict:
        return {
            "delta": default_delta_star(graph),
            "num_shards": default_num_shards(graph),
            "partitioner": "contiguous",
        }


def _bind_step(fn, shard, bound):
    return lambda: fn(shard, bound)


register_stepper(ShardedDeltaStepper())
