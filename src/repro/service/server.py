"""The synchronous query service: queue → coalesce → batch-solve → respond.

:class:`QueryService` is the front door of the subsystem.  Callers
``submit`` point or one-to-many queries; ``drain`` executes one planning
round — cache probes, then batches of exact single-source solves
(:mod:`repro.service.batch`), degrading to landmark bounds
(:mod:`repro.service.landmarks`) only while a circuit breaker holds the
solver off — and returns every response in submission order.  ``query``
wraps submit+drain for the interactive one-off case.

Graphs served here are *mutable*: :meth:`QueryService.mutate` applies an
edge-update batch through :mod:`repro.dynamic` and repairs the hot cached
distance vectors incrementally (no cold recompute).  The batch bumps
``graph.epoch``, the one staleness signal, so anything else derived from
the old arrays (cache rows, landmark tables, the tuner's pick) retires
unasked; :meth:`QueryService.invalidate` bumps it after a raw edit.

Each query observes the latency of the round that served it, once, into
one ``latency-ms`` histogram (the bound recorder's ``service.query_ms``,
or the service's own), and :meth:`QueryService.stats` reads its
percentiles (p50/p90/p99).
Everything is synchronous and single-threaded by design: sharding and
async dispatch layer on top of exactly this surface.
"""

from __future__ import annotations

import operator
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace

import numpy as np

from ..dynamic.incremental import repair_sssp
from ..dynamic.mutations import AppliedUpdates, apply_edge_updates
from ..faults.breaker import (
    BREAKER_STATE_CODES,
    CircuitBreaker,
    CircuitOpenError,
    MutationShedError,
)
from ..graphs.graph import Graph
from ..obs.flight import SlowQueryLog
from ..obs.metrics import Histogram
from ..sssp.delta import choose_delta
from .batch import batch_delta_stepping
from .cache import CacheStats, DistanceCache
from .landmarks import LandmarkIndex
from .planner import Query, QueryPlan, QueryPlanner

__all__ = ["QueryResponse", "MutationReport", "ServiceStats", "QueryService"]

#: the disabled-recorder stand-in for a ``recorder.context(...)`` block
_NO_CONTEXT = nullcontext()


def _vertex_id(value, what: str) -> int:
    """*value* as a plain ``int`` vertex id; ``TypeError`` for non-integers."""
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(
            f"{what} must be an integer vertex id, got {value!r}"
        ) from None


@dataclass(frozen=True)
class QueryResponse:
    """The answer to one :class:`~repro.service.planner.Query`.

    ``distance`` is filled for point queries, ``distances`` (full vector)
    for one-to-many.  ``degraded`` marks a landmark estimate the circuit
    breaker forced (the source needed an exact solve, but the solver is
    failing); such an answer has ``exact=False``, ``distance`` carries
    the admissible upper bound and ``bounds`` the full interval.
    """

    query: Query
    distance: float | None = None
    distances: np.ndarray | None = None
    exact: bool = True
    from_cache: bool = False
    latency_ms: float = 0.0
    bounds: tuple[float, float] | None = None
    degraded: bool = False


@dataclass(frozen=True)
class MutationReport:
    """What one :meth:`QueryService.mutate` call did.

    ``repaired_entries`` cached distance vectors were patched in place by
    the incremental kernel and live on under the new epoch;
    ``dropped_entries`` (other weight modes) were discarded and will
    re-solve on next miss.
    """

    applied: AppliedUpdates
    repaired_entries: int
    dropped_entries: int
    epoch: int

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MutationReport<{self.applied.num_updates} updates, "
            f"repaired={self.repaired_entries}, dropped={self.dropped_entries}, "
            f"epoch={self.epoch}>"
        )


@dataclass(frozen=True)
class ServiceStats:
    """Aggregate service counters + latency percentiles."""

    queries_served: int
    exact_answers: int
    batches_solved: int
    sources_solved: int
    cache: CacheStats
    latency_p50_ms: float
    latency_p90_ms: float
    latency_p99_ms: float
    throughput_qps: float
    mutations_applied: int = 0
    entries_repaired: int = 0
    degraded_answers: int = 0
    mutations_shed: int = 0
    breaker_state: str = "none"
    breaker_trips: int = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ServiceStats<{self.queries_served} served, "
            f"p50={self.latency_p50_ms:.2f}ms p99={self.latency_p99_ms:.2f}ms, "
            f"{self.throughput_qps:.0f} qps>"
        )


class QueryService:
    """A synchronous distance-query service over one graph.

    Parameters
    ----------
    graph:
        The served graph.  Mutate it through :meth:`mutate` (which
        repairs cached answers in place); after a *raw* in-place edit
        call :meth:`invalidate` (or bump ``graph.epoch`` yourself).
    weight_mode:
        Cache-key tag for the weight configuration of *graph*.
    delta:
        Δ of the ``delta`` stepper's exact solves (``None`` = auto,
        :func:`repro.sssp.delta.choose_delta`).
    cache:
        A :class:`DistanceCache` (one is created when omitted; pass a
        shared instance to pool across services).
    landmarks:
        Optional :class:`LandmarkIndex` that *breaker* degrades to.
    stepper:
        Pin exact solves to one stepping-registry algorithm (any name
        accepted by :func:`repro.service.batch.batch_delta_stepping`,
        e.g. ``"rho"``).  Forwarded to the planner.  ``None`` leaves the
        choice to the tuner when one is set, and otherwise solves with
        ``"delta"`` (one compiled fused solve per source).
    autotune:
        Let the stepping auto-tuner pick the exact-solve algorithm per
        graph epoch: the first drain *that needs an exact solve* after
        each epoch bump probes the portfolio once (the tuner caches its
        pick per epoch) — cache-only drains never pay the probe.  A
        pinned ``stepper`` beats the tuned pick.
    tuner:
        Optional pre-configured :class:`repro.stepping.AutoTuner`
        (implies ``autotune``); pass a shared instance to pool probe
        results across services.
    recorder:
        A truthy :class:`repro.obs.Recorder` traces every drain round
        (``service:drain`` / ``service:plan`` / ``service:batch-solve``
        spans, forwarded into every stepper's solves but ``delta``'s,
        which stay on the compiled loop), feeds the per-query and
        mutation latencies into ``service.query_ms`` /
        ``service.mutate_ms`` histograms (``latency-ms`` bucket preset:
        sub-ms resolution; without a recorder the service keeps its own
        query histogram on that preset), and binds the cache's
        hit/miss/eviction counters to the recorder's metrics registry.  Every drain round
        additionally runs under a ``request_id`` ambient trace context,
        so each span a request produces — plan, batch-solve, and the
        sharded stepper's superstep/shard-step/exchange spans beneath
        them — carries the ids it served and the trace is filterable
        per request.  Recording never changes any answer.
    slow_query_ms:
        Latency threshold for the structured slow-query log: any
        response slower than this produces one
        :class:`repro.obs.SlowQueryLog` entry (request id, plan shape,
        stepper spec, cache verdict, work-counter deltas, and a
        ``flight`` snapshot of the newest 32 spans leading up to it, from
        the recorder's trace).  Requires a truthy *recorder*; ``None``
        disables the log.
    breaker:
        Optional :class:`repro.faults.CircuitBreaker` guarding the
        exact-solve path.  While open, exact solves for non-cached
        sources degrade to landmark upper bounds (responses carry
        ``degraded=True``) — or raise
        :class:`~repro.faults.CircuitOpenError` when the service has no
        landmark index — and :meth:`mutate` sheds its batch with
        :class:`~repro.faults.MutationShedError` (a failed mid-repair
        mutation while the solver is flaky is worse than a stale epoch).
        Breaker state is surfaced in :meth:`stats` and, with a recorder,
        as the ``service.degraded`` / ``service.breaker_state`` gauges.
    solver:
        The batch solver callable (defaults to
        :func:`repro.service.batch.batch_delta_stepping`); injectable so
        the breaker drill and tests can make the exact path fail on
        demand.  Same signature and result contract as the default.
    """

    def __init__(
        self,
        graph: Graph,
        weight_mode: str = "unit",
        delta: float | None = None,
        cache: DistanceCache | None = None,
        landmarks: LandmarkIndex | None = None,
        stepper: str | None = None,
        autotune: bool = False,
        tuner=None,
        recorder=None,
        slow_query_ms: float | None = None,
        breaker: CircuitBreaker | None = None,
        solver=None,
    ):
        self.graph = graph
        self.weight_mode = weight_mode
        self.recorder = recorder if recorder else None
        # the one query-latency record, on the ms-scale preset (first
        # touch fixes the buckets; the coarse geometric default cannot
        # resolve sub-ms cache hits)
        if self.recorder is not None:
            self._latency = self.recorder.metrics.histogram(
                "service.query_ms", buckets="latency-ms"
            )
            self.recorder.metrics.histogram("service.mutate_ms", buckets="latency-ms")
        else:
            self._latency = Histogram("latency-ms")
        self.slow_query_log = (
            SlowQueryLog(slow_query_ms) if slow_query_ms is not None else None
        )
        self._delta_auto = delta is None
        self.delta = delta if delta is not None else choose_delta(graph)
        if cache is None:
            cache = DistanceCache(
                metrics=self.recorder.metrics if self.recorder is not None else None
            )
        elif self.recorder is not None:
            cache.bind_metrics(self.recorder.metrics)
        self.cache = cache
        self.landmarks = landmarks
        self.planner = QueryPlanner(stepper=stepper)
        if tuner is None and autotune:
            from ..stepping import AutoTuner

            tuner = AutoTuner()
        self.tuner = tuner
        self.breaker = breaker
        self._solver = solver if solver is not None else batch_delta_stepping
        self._pending: list[Query] = []
        self._request_seq = 0
        self._last_plan: QueryPlan | None = None
        self._serving_seconds = 0.0
        self._exact = 0
        self._batches_solved = 0
        self._sources_solved = 0
        self._mutations = 0
        self._entries_repaired = 0
        self._degraded = 0
        self._mutations_shed = 0

    # -- request intake ----------------------------------------------------

    def submit(self, query: Query) -> int:
        """Enqueue one query; returns its position in the next drain.

        A query without a ``request_id`` gets one assigned
        (``q-NNNNNN``, service-scoped) — the id the response's ``query``
        carries, the trace spans are tagged with, and the slow-query log
        records.  Vertex ids must be integers (anything
        :func:`operator.index` accepts, NumPy integers included); any
        other type raises ``TypeError`` and an out-of-range id raises
        ``IndexError``, both before the query is queued.
        """
        source = _vertex_id(query.source, "source")
        target = None if query.target is None else _vertex_id(query.target, "target")
        n = self.graph.num_vertices
        if not 0 <= source < n:
            raise IndexError(f"source {source} out of range [0, {n})")
        if target is not None and not 0 <= target < n:
            raise IndexError(f"target {target} out of range [0, {n})")
        request_id = query.request_id
        if request_id is None:
            self._request_seq += 1
            request_id = f"q-{self._request_seq:06d}"
        self._pending.append(
            replace(query, source=source, target=target, request_id=request_id)
        )
        return len(self._pending) - 1

    @property
    def num_pending(self) -> int:
        return len(self._pending)

    def query(self, source: int, target: int | None = None) -> QueryResponse:
        """Submit one query and drain immediately (the interactive path)."""
        idx = self.submit(Query(source=source, target=target))
        return self.drain()[idx]

    # -- one planning/execution round --------------------------------------

    def drain(self) -> list[QueryResponse]:
        """Execute every pending query; responses in submission order."""
        queries, self._pending = self._pending, []
        if not queries:
            return []
        rec = self.recorder
        if rec is None:
            return self._drain_round(queries)
        # one synchronous round serves every pending request, so its id
        # is the (deduplicated) comma-joined set — a span belongs to a
        # request iff the id appears in its request_id arg
        request_id = (
            queries[0].request_id
            if len(queries) == 1
            else ",".join(dict.fromkeys(q.request_id for q in queries if q.request_id is not None))
        )
        counters_before = (
            rec.summary()["counters"] if self.slow_query_log is not None else None
        )
        responses = self._drain_round(queries, request_id)
        rec.inc("service.queries", len(responses))
        if counters_before is not None:
            self._log_slow(responses, counters_before)
        return responses

    def _log_slow(
        self, responses: list[QueryResponse], counters_before: dict
    ) -> None:
        """Append one slow-query entry per over-threshold response."""
        rec = self.recorder
        log = self.slow_query_log
        if rec is None or log is None:
            return
        slow = [r for r in responses if r.latency_ms > log.threshold_ms]
        if not slow:
            return
        counters_after = rec.summary()["counters"]
        deltas = {
            k: v - counters_before.get(k, 0)
            for k, v in counters_after.items()
            if v != counters_before.get(k, 0)
        }
        plan = self._last_plan
        plan_shape = (
            {
                "cached": len(plan.cached),
                "batches": len(plan.batches),
                "exact_sources": plan.num_exact_sources,
            }
            if plan is not None
            else {}
        )
        stepper = (plan.stepper if plan is not None else None) or "delta"
        flight = rec.trace.snapshot(last=32)
        for r in slow:
            entry = {
                "request_id": r.query.request_id,
                "source": int(r.query.source),
                "target": None if r.query.target is None else int(r.query.target),
                "latency_ms": round(r.latency_ms, 3),
                "plan": plan_shape,
                "stepper": str(stepper),
                "cache_hit": bool(r.from_cache),
                "exact": bool(r.exact),
                "counters": deltas,
                "flight": flight,
            }
            log.record(entry)
        rec.inc("service.slow_queries", len(slow))

    def _drain_round(
        self, queries: list[Query], request_id: str | None = None
    ) -> list[QueryResponse]:
        """One planning/execution round.

        With a recorder, the round writes its ``service:plan``,
        ``service:batch-solve`` and ``service:drain`` spans itself, timed
        by the clock readings its latency takes anyway and tagged with
        *request_id*; only a solver call runs under the ambient
        ``request_id`` context, so that spans a stepper records are
        tagged too.  The drain span is the interval every query of the
        round observes as its latency.
        """
        trace = self.recorder.trace if self.recorder is not None else None
        t0 = time.perf_counter_ns()
        exact_before = self._exact
        plan = self.planner.plan(
            queries,
            cache=self.cache,
            graph=self.graph,
            weight_mode=self.weight_mode,
        )
        if trace is not None:
            trace.complete(
                "service:plan", t0, time.perf_counter_ns(), request_id=request_id,
                queries=len(queries), batches=len(plan.batches), cached=len(plan.cached),
            )
        self._last_plan = plan
        if self.tuner is not None and plan.batches and plan.stepper is None:
            # tuned routing: the tuner caches its pick per graph epoch, so
            # it probes only on the first exact drain after an epoch bump
            # — cache-only drains never pay it — and inside the timed
            # round, so its cost shows in the latency stats it affects.
            plan.stepper = self.tuner.best_stepper(self.graph)
        # the plan carries the fetched cache hits (a later eviction — e.g.
        # by this round's own puts into a small shared cache — can't
        # invalidate an answer already in hand)
        cached_set = set(plan.cached)
        solved = dict(plan.cached)
        exact_solved, degraded = self._execute(plan, request_id)
        solved.update(exact_solved)
        t1 = time.perf_counter_ns()
        elapsed_ms = (t1 - t0) / 1e6
        self._serving_seconds += elapsed_ms / 1e3

        # Synchronous round: every query in it observes the round's latency.
        per_query_ms = elapsed_ms
        degraded_set = set(degraded)
        responses = []
        for q in queries:
            s = q.source
            self._latency.observe(per_query_ms)
            if s in degraded_set:
                resp = self._answer_degraded(q, per_query_ms)
            else:
                resp = self._answer_exact(
                    q, solved[s], from_cache=s in cached_set, latency_ms=per_query_ms
                )
            responses.append(resp)
        self._update_breaker_gauges()
        if trace is not None:
            trace.complete(
                "service:drain", t0, t1, request_id=request_id,
                queries=len(queries), exact=self._exact - exact_before,
            )
        return responses

    def _execute(
        self, plan: QueryPlan, request_id: str | None = None
    ) -> tuple[dict[int, np.ndarray], list[int]]:
        """Run the plan's batch solves; returns (source → distances, degraded).

        With a breaker attached, a batch whose solve fails (or arrives
        while the breaker is open) falls back to landmark answers: its
        sources are returned in the *degraded* list instead of being
        solved.  Without landmarks the failure propagates — there is
        nothing to degrade to.
        """
        solved: dict[int, np.ndarray] = {}
        degraded: list[int] = []
        rec = self.recorder
        method = plan.stepper or "delta"
        breaker = self.breaker
        for batch in plan.batches:
            if breaker is not None and not breaker.allow():
                if self.landmarks is None:
                    raise CircuitOpenError(
                        "exact solve refused: circuit breaker is open and the "
                        "service has no landmark index to degrade to"
                    )
                degraded.extend(int(s) for s in batch)
                if rec is not None:
                    rec.inc("service.breaker_rejections", len(batch))
                continue
            t_solve = time.perf_counter_ns()
            try:
                with rec.context(request_id=request_id) if rec is not None else _NO_CONTEXT:
                    result = self._solver(
                        self.graph, batch, delta=self.delta, method=method, recorder=rec
                    )
            except Exception:
                if rec is not None:
                    rec.trace.complete(
                        "service:batch-solve", t_solve, time.perf_counter_ns(),
                        request_id=request_id, batch=len(batch), method=str(method), failed=True,
                    )
                if breaker is None:
                    raise
                breaker.record_failure()
                if rec is not None:
                    rec.inc("service.solver_failures")
                if self.landmarks is None:
                    raise
                degraded.extend(int(s) for s in batch)
                continue
            if rec is not None:
                rec.trace.complete(
                    "service:batch-solve", t_solve, time.perf_counter_ns(),
                    request_id=request_id, batch=len(batch), method=str(method),
                    phases=result.phases, relaxations=result.relaxations,
                )
            if breaker is not None:
                breaker.record_success()
            self._batches_solved += 1
            self._sources_solved += len(batch)
            for k, s in enumerate(batch):
                solved[int(s)] = self.cache.put(
                    self.graph, int(s), self.weight_mode, result.distances[k]
                )
        return solved, degraded

    def _answer_exact(self, q: Query, dist: np.ndarray, from_cache: bool, latency_ms: float) -> QueryResponse:
        self._exact += 1
        if q.target is None:
            return QueryResponse(
                query=q, distances=dist, exact=True,
                from_cache=from_cache, latency_ms=latency_ms,
            )
        return QueryResponse(
            query=q, distance=float(dist[q.target]), exact=True,
            from_cache=from_cache, latency_ms=latency_ms,
        )

    def _answer_degraded(self, q: Query, latency_ms: float) -> QueryResponse:
        """A landmark upper bound in place of the exact solve the breaker
        held off (only reached with a landmark index; see :meth:`_execute`)."""
        self._degraded += 1
        rec = self.recorder
        if rec is not None:
            rec.inc("service.degraded_answers")
        self.landmarks.ensure_fresh()  # lazy rebuild after mutations
        if q.target is None:
            # one-to-many: upper bounds to every vertex via the landmarks
            ub = np.min(
                self.landmarks.dist_to[:, q.source, None] + self.landmarks.dist_from,
                axis=0,
            )
            ub[q.source] = 0.0
            return QueryResponse(
                query=q, distances=ub, exact=False, latency_ms=latency_ms,
                degraded=True,
            )
        est = self.landmarks.estimate(q.source, q.target)
        return QueryResponse(
            query=q, distance=est.upper, exact=False,
            latency_ms=latency_ms, bounds=(est.lower, est.upper),
            degraded=True,
        )

    # -- mutation ----------------------------------------------------------

    def mutate(
        self,
        inserts=None,
        deletes=None,
        reweights=None,
        strict: bool = True,
    ) -> MutationReport:
        """Apply one edge-update batch to the served graph.

        The service's cached entries are harvested *before* the mutation,
        the batch is applied through
        :func:`repro.dynamic.apply_edge_updates` (bumping the epoch the
        cache keys on), and then every harvested entry of this service's
        weight mode is repaired incrementally
        (:func:`repro.dynamic.repair_sssp`, on the ``delta`` stepper's
        Δ-bucket loop whatever stepper the service is pinned to) and
        re-inserted under the new epoch, so hot sources keep answering
        from cache with zero recompute.  To re-solve them on next miss
        instead, call ``svc.cache.invalidate(svc.graph)`` first.  Entries
        of *other* weight modes are always dropped: their weight arrays
        no longer describe this graph.  With a recorder bound, each
        repair records its ``repair`` span but stays on the compiled
        loop, as the service's batch solves do.

        The epoch bump alone makes the landmark index (if any) rebuild
        lazily on the next degraded answer and the auto-tuner probe again
        on the next exact drain.  Pending (submitted, undrained) queries
        are answered against the post-mutation graph.

        With an *open* circuit breaker attached, the batch is shed with
        :class:`~repro.faults.MutationShedError` before anything is
        touched: while the solver is failing, a repair that dies
        mid-flight would only widen the blast radius, and the current
        epoch snapshot can still answer.  If a repair *does* fail
        mid-flight, the graph's arrays, Δ and cache are rolled back to
        the pre-mutation snapshot, under an epoch past the aborted one,
        before the error propagates.
        """
        breaker = self.breaker
        if breaker is not None and not breaker.allow_mutation():
            self._mutations_shed += 1
            shed_rec = self.recorder
            if shed_rec is not None:
                shed_rec.inc("service.mutations_shed")
            raise MutationShedError(
                "mutation shed: circuit breaker is open — the service keeps "
                "answering from the current epoch snapshot; retry after the "
                "breaker closes"
            )
        rec = self.recorder
        if rec is None:
            return self._mutate(inserts, deletes, reweights, strict)
        t0 = time.perf_counter()
        with rec.span("service:mutate") as sp:
            report = self._mutate(inserts, deletes, reweights, strict)
            sp.set(
                updates=report.applied.num_updates,
                repaired=report.repaired_entries,
                epoch=report.epoch,
            )
        rec.observe("service.mutate_ms", (time.perf_counter() - t0) * 1e3)
        rec.inc("service.mutations")
        return report

    def _mutate(self, inserts, deletes, reweights, strict) -> MutationReport:
        """:meth:`mutate` body (the public wrapper adds span + histogram)."""
        harvested = self.cache.take_entries(self.graph)
        # weights are the one array mutations may edit in place (pure
        # reweights); indptr/indices are only ever replaced wholesale
        snapshot = (
            self.graph.indptr,
            self.graph.indices,
            self.graph.weights.copy(),
            self.delta,
        )
        try:
            applied = apply_edge_updates(
                self.graph, inserts=inserts, deletes=deletes, reweights=reweights, strict=strict
            )
        except Exception:
            # batch rejected before any distance changed (at most the
            # rows were canonicalized): the harvested entries are still
            # valid — put them back
            for (source, wmode), dist in harvested.items():
                self.cache.put(self.graph, source, wmode, dist)
            raise
        if self._delta_auto:
            self.delta = choose_delta(self.graph)
        repaired = 0
        try:
            for (source, wmode), dist in harvested.items():
                if wmode != self.weight_mode:
                    continue
                result = repair_sssp(
                    self.graph, source, dist, applied, delta=self.delta,
                    recorder=self.recorder,
                )
                self.cache.put(self.graph, source, wmode, result.distances)
                repaired += 1
        except Exception:
            # mid-repair failure: the epoch already advanced and some
            # entries were re-put under it — restore the pre-mutation
            # snapshot so the service keeps answering exactly what it
            # answered before the call
            self._rollback_mutation(snapshot, harvested)
            raise
        self._mutations += 1
        self._entries_repaired += repaired
        return MutationReport(
            applied=applied,
            repaired_entries=repaired,
            dropped_entries=len(harvested) - repaired,
            epoch=self.graph.epoch,
        )

    def _rollback_mutation(self, snapshot, harvested) -> None:
        """Restore the pre-mutation state after a mid-repair failure.

        Puts back the CSR arrays and Δ of *snapshot*, moves the epoch
        past the aborted one (it never decreases), drops the aborted
        epoch's rows and re-inserts the *harvested* entries — so every
        source that answered from cache before the call still does, with
        identical vectors.
        """
        g = self.graph
        g.indptr, g.indices, g.weights, self.delta = snapshot
        g.epoch += 1
        self.cache.take_entries(g)
        for (source, wmode), dist in harvested.items():
            self.cache.put(g, source, wmode, dist)

    # -- maintenance & reporting -------------------------------------------

    def invalidate(self) -> int:
        """Announce a *raw* in-place edit of the graph's arrays: bump
        ``graph.epoch``, which retires everything derived from the old
        arrays in every holder, and drop this cache's rows now; returns
        how many.  Batches applied through :meth:`mutate` or
        :func:`repro.dynamic.apply_edge_updates` bump the epoch themselves.
        """
        self.graph.epoch += 1
        return self.cache.invalidate(self.graph)

    def stats(self) -> ServiceStats:
        """Counters plus the latency percentiles of the one query
        histogram — with a recorder, the same distribution the
        OpenMetrics scrape and the SLO engine read; ``NaN`` when nothing
        was observed."""
        latency = self._latency
        served = self._exact + self._degraded
        qps = served / self._serving_seconds if self._serving_seconds > 0 else 0.0
        breaker = self.breaker
        return ServiceStats(
            queries_served=served,
            exact_answers=self._exact,
            batches_solved=self._batches_solved,
            sources_solved=self._sources_solved,
            cache=self.cache.stats(),
            latency_p50_ms=latency.percentile(50),
            latency_p90_ms=latency.percentile(90),
            latency_p99_ms=latency.percentile(99),
            throughput_qps=qps,
            mutations_applied=self._mutations,
            entries_repaired=self._entries_repaired,
            degraded_answers=self._degraded,
            mutations_shed=self._mutations_shed,
            breaker_state=breaker.state if breaker is not None else "none",
            breaker_trips=breaker.trips if breaker is not None else 0,
        )

    def _update_breaker_gauges(self) -> None:
        """Refresh ``service.degraded`` / ``service.breaker_state`` gauges."""
        rec = self.recorder
        breaker = self.breaker
        if rec is None or breaker is None:
            return
        state = breaker.state
        rec.set_gauge("service.degraded", 1.0 if state != "closed" else 0.0)
        rec.set_gauge("service.breaker_state", float(BREAKER_STATE_CODES[state]))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"QueryService<{self.graph.name}, pending={self.num_pending}, "
            f"cache={len(self.cache)}>"
        )
