"""The per-graph stepping auto-tuner: probe, fit, pick.

No stepper dominates: ρ-stepping wins on power-law graphs (frontiers
explode past any Δ window), Δ-variants win on meshes (frontiers stay
thin and windowed), Bellman–Ford wins on tiny-diameter graphs (two fat
waves beat any scheduling).  Rather than guess from structure, the tuner
*measures*: it solves from a few sampled sources with every candidate
stepper, fits a per-source cost model (mean ms per source, per stepper —
SSSP cost is per-source affine once the graph is fixed), and
:meth:`AutoTuner.best_stepper` returns the cheapest.

Probes are cached per ``(graph identity, epoch)`` — the same key the
service's :class:`~repro.service.cache.DistanceCache` uses — so a served
graph is probed once, and a mutation (which bumps the epoch) triggers a
re-probe on next use.  The service planner consults this pick for exact
solves; ``repro step-bench`` reports it next to the full measurement.

Candidates are stepper *specs*: a bare registry name, or a name with
pinned parameters (``"sharded(shards=2,transport=threads)"``) so one
algorithm can race under several configurations — that is how shard
count and partitioner become tunable knobs.  Probes execute each spec
**verbatim**, exactly as a consumer resolving the winning spec later
will, so pick and execution always see the same configuration; pooled
transports resolve through :func:`~repro.parallel.pool.get_pool`, whose
process-wide memoized pools mean a probe round reuses one shared worker
pool instead of spawning its own.
"""

from __future__ import annotations

import weakref
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from ..graphs.graph import Graph
from .base import STEPPERS, format_known, parse_stepper_spec, resolve_stepper_spec

__all__ = ["DEFAULT_CANDIDATES", "ProbeRow", "TuningReport", "AutoTuner", "best_stepper"]

#: the portfolio a bare tuner races.  ``graphblas`` and ``dijkstra`` are
#: registered steppers but not default candidates: the first is the
#: paper's deliberately-unfused formulation, the second a Python-loop
#: oracle — both lose by construction, so probing them is pure overhead.
#: The pinned-kernel ``delta(kernel=scatter)`` and the sharded specs are
#: left out too: on every committed STEP graph they trail the best
#: stepper (scatter 1.45–2.08×, sharded 2.7–7.3×).  So is ``radius``,
#: which never wins: the committed STEP rows put it at 1.08–1.27× the
#: best on all five CI graphs, and single-source solves at benchmark
#: scale (uniform weights, 2-vCPU x86 host) put it far behind — 124 vs
#: 17 ms on loc-brightkite-sim, 273 vs 27 ms on slashdot-sim, 104 vs
#: 21 ms on roadgrid-medium — while costing ~185 of the ~415 ms of each
#: loc-brightkite-sim tuner probe.  Race any of them explicitly with
#: ``AutoTuner(candidates=...)``.
DEFAULT_CANDIDATES = (
    "delta",
    "delta-star",
    "rho",
    "bellman-ford",
)


@dataclass(frozen=True)
class ProbeRow:
    """One candidate's measurement on one graph."""

    stepper: str
    ms_per_source: float
    sources_probed: int

    def predicted_ms(self, num_sources: int) -> float:
        return self.ms_per_source * num_sources


@dataclass(frozen=True)
class TuningReport:
    """The tuner's evidence and verdict for one graph epoch."""

    graph_name: str
    epoch: int
    sources: tuple[int, ...]
    rows: tuple[ProbeRow, ...] = field(default_factory=tuple)

    @property
    def best(self) -> str:
        """The winning stepper name."""
        return min(self.rows, key=lambda r: r.ms_per_source).stepper

    def row_for(self, stepper: str) -> ProbeRow:
        for r in self.rows:
            if r.stepper == stepper:
                return r
        raise KeyError(stepper)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TuningReport<{self.graph_name}@e{self.epoch}: best={self.best} "
            f"of {len(self.rows)}>"
        )


class AutoTuner:
    """Samples sources, races the candidate steppers, remembers the winner.

    Parameters
    ----------
    candidates:
        Registry names to race (default :data:`DEFAULT_CANDIDATES`).
    num_sources:
        Sources sampled per probe.  One is usually enough — per-source
        cost varies far less than per-stepper cost — and keeps the
        service's first-drain probe overhead near one extra solve.
    repeats:
        Timed repetitions per (stepper, source); the minimum is kept.
    seed:
        Source-sampling seed (probes are deterministic given the graph).
    """

    def __init__(
        self,
        candidates: tuple[str, ...] | None = None,
        num_sources: int = 1,
        repeats: int = 1,
        seed: int = 23,
    ):
        self.candidates = tuple(candidates) if candidates is not None else DEFAULT_CANDIDATES
        unknown = [c for c in self.candidates if parse_stepper_spec(c)[0] not in STEPPERS]
        if unknown:
            raise ValueError(
                f"unknown stepper(s) {unknown!r}; known: {format_known(STEPPERS)}"
            )
        if not self.candidates:
            raise ValueError("need at least one candidate stepper")
        if num_sources < 1:
            raise ValueError("num_sources must be >= 1")
        self.num_sources = num_sources
        self.repeats = max(1, repeats)
        self.seed = seed
        # keyed on (id(graph), epoch), same as the service's DistanceCache;
        # a weakref.finalize per graph retires its reports on collection —
        # which also protects against id reuse handing graph B the report
        # probed for a dead graph A.  The callback may fire at any
        # allocation point, so it only enqueues; lookups purge the queue.
        self._reports: dict[tuple[int, int], TuningReport] = {}
        self._tracked_gids: set[int] = set()
        self._dead_gids: deque[int] = deque()

    # -- probing ------------------------------------------------------------

    def _sample_sources(self, graph: Graph) -> tuple[int, ...]:
        n = graph.num_vertices
        rng = np.random.default_rng(self.seed)
        # bias toward vertices that have out-edges: an isolated source
        # measures dispatch overhead, not the stepper
        deg = graph.out_degree()
        pool = np.nonzero(deg > 0)[0]
        if len(pool) == 0:
            pool = np.arange(n)
        take = min(self.num_sources, len(pool))
        return tuple(int(s) for s in rng.choice(pool, size=take, replace=False))

    def probe(self, graph: Graph, sources=None) -> TuningReport:
        """Race every candidate on *graph*; returns (and caches) the report.

        *sources* overrides the sampled probe sources (the STEP bench
        passes its own measurement source so pick and measurement agree).
        """
        from ..bench.timing import time_callable

        sources = tuple(sources) if sources is not None else self._sample_sources(graph)
        if not sources:
            raise ValueError("probe needs at least one source")
        # each spec runs verbatim — the same resolution path a consumer
        # executing the winning pick takes — so measured and served
        # configurations can never drift apart.  Pooled transports go
        # through get_pool's memoized pools: one shared worker set per
        # thread count, never a per-probe spawn.
        resolved = [(spec, *resolve_stepper_spec(spec)) for spec in self.candidates]
        rows = []
        for spec, stepper, params in resolved:
            per_source = []
            for s in sources:
                stats = time_callable(
                    lambda: stepper.solve(graph, s, **params),
                    repeats=self.repeats, warmup=0,
                )
                per_source.append(stats.best_ms)
            rows.append(
                ProbeRow(
                    stepper=spec,
                    ms_per_source=float(np.mean(per_source)),
                    sources_probed=len(sources),
                )
            )
        report = TuningReport(
            graph_name=graph.name,
            epoch=graph.epoch,
            sources=sources,
            rows=tuple(rows),
        )
        self._purge_dead()
        gid = id(graph)
        if gid not in self._tracked_gids:
            self._tracked_gids.add(gid)
            weakref.finalize(graph, self._dead_gids.append, gid)
        # a re-probe for the same epoch supersedes; older epochs of this
        # graph can never be asked for again (epochs are monotone)
        for key in [k for k in self._reports if k[0] == gid]:
            del self._reports[key]
        self._reports[(gid, graph.epoch)] = report
        return report

    def _purge_dead(self) -> None:
        """Drop reports of collected graphs (guards id reuse too)."""
        while self._dead_gids:
            gid = self._dead_gids.popleft()
            self._tracked_gids.discard(gid)
            for key in [k for k in self._reports if k[0] == gid]:
                del self._reports[key]

    # -- the fitted model ---------------------------------------------------

    def report_for(self, graph: Graph) -> TuningReport:
        """The cached report for *graph*'s current epoch (probing on miss)."""
        self._purge_dead()
        cached = self._reports.get((id(graph), graph.epoch))
        return cached if cached is not None else self.probe(graph)

    def best_stepper(self, graph: Graph) -> str:
        """The cheapest candidate for *graph* (probes on first use per epoch)."""
        return self.report_for(graph).best

    def predict_ms(self, graph: Graph, stepper: str, num_sources: int = 1) -> float:
        """Predicted exact-solve cost from the fitted per-source model."""
        return self.report_for(graph).row_for(stepper).predicted_ms(num_sources)


#: process-wide default tuner (the CLI's ``--auto`` and the service's
#: ``autotune=True`` share its probe cache)
_DEFAULT_TUNER: AutoTuner | None = None


def best_stepper(graph: Graph, tuner: AutoTuner | None = None) -> str:
    """Module-level convenience: the tuned pick from a shared default tuner."""
    global _DEFAULT_TUNER
    if tuner is not None:
        return tuner.best_stepper(graph)
    if _DEFAULT_TUNER is None:
        _DEFAULT_TUNER = AutoTuner()
    return _DEFAULT_TUNER.best_stepper(graph)
