"""Write-set race checker for the sharded execution path.

PR 4's correctness story rests on one ownership contract: **between two
frontier exchanges, a shard writes only the tentative distances of the
vertices it owns**.  Cross-shard improvements must travel through the
outboxes and get min-combined at :meth:`FrontierExchange.flush` — never
scribbled into ``dist`` directly.  Today's transports make violations
hard to *observe* (inline runs are serial; the thread pool shares one
address space, so a stray foreign write still lands "correctly"), but a
future multiprocess or multi-machine transport turns every violation
into silent wrong answers: the foreign write happens in the wrong
process's copy and is lost, or worse, races the owner's own update.

This module checks the contract dynamically, by attribution rather than
interleaving:

- :class:`WriteTrackingTransport` wraps any real transport and runs the
  per-shard step functions **one at a time**, snapshotting the shared
  distance array around each.  The diff of each snapshot pair is that
  shard's write set for the superstep (the stepper issues exactly one
  ``Transport.run`` call per superstep, and the exchange's own writes
  happen outside ``run`` — so the diffs attribute cleanly).
- After each superstep it asserts (a) every write landed on a vertex the
  writing shard owns, and (b) the per-shard write sets are pairwise
  disjoint; failures become :class:`RaceViolation` rows naming the shard
  pair, the superstep, and the overlapping vertex ids.
- :func:`check_sharded_run` drives a full seeded resolve under the
  tracker.  The per-shard relaxation arenas live and die inside that
  resolve, so no arena can leak state into a later run.

Two honest limitations, both inherent to diff-based attribution: a write
that stores the value already present is invisible (benign for the
ownership contract — min-combining an equal value is a no-op), and
serializing the steps means genuine *timing* races between threads are
not explored — the checker validates the protocol's write discipline,
which is what makes thread timing irrelevant for a conforming stepper.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..graphs.graph import Graph
from ..shard.exchange import Transport, make_transport
from ..shard.stepper import ShardedDeltaStepper, sharded_view
from ..sssp.result import INF

__all__ = [
    "RaceViolation",
    "RaceReport",
    "WriteTrackingTransport",
    "check_sharded_run",
]

#: how many offending vertex ids a violation row lists verbatim; the
#: full count is always reported alongside
_MAX_LISTED = 8


@dataclass(frozen=True)
class RaceViolation:
    """One broken-ownership observation: who wrote where, and when.

    ``kind`` is ``"foreign-write"`` (a shard wrote a vertex another
    shard owns; ``shards`` is ``(writer, owner)``) or ``"overlap"``
    (two shards wrote the same vertex in one superstep; ``shards`` is
    the pair, ascending).  ``vertices`` lists up to the first
    ``_MAX_LISTED`` offending global vertex ids; ``num_vertices`` is
    the full count.
    """

    kind: str
    superstep: int
    shards: tuple
    vertices: tuple
    num_vertices: int

    def describe(self) -> str:
        ids = ", ".join(str(v) for v in self.vertices)
        if self.num_vertices > len(self.vertices):
            ids += f", … ({self.num_vertices} total)"
        if self.kind == "foreign-write":
            return (
                f"superstep {self.superstep}: shard {self.shards[0]} wrote "
                f"{self.num_vertices} vertex(es) owned by shard "
                f"{self.shards[1]}: [{ids}]"
            )
        return (
            f"superstep {self.superstep}: shards {self.shards[0]} and "
            f"{self.shards[1]} both wrote {self.num_vertices} vertex(es): [{ids}]"
        )


@dataclass
class RaceReport:
    """The outcome of one tracked sharded run.

    Falsy-free reading: ``report.ok`` is True iff no violation was
    observed; ``render()`` is the human-facing summary the pytest
    harness prints on failure.
    """

    num_shards: int
    partitioner: str
    transport: str
    supersteps: int = 0
    writes_checked: int = 0
    violations: list = field(default_factory=list)
    #: the final distance vector of the tracked run, so harnesses can
    #: assert the tracker never perturbed the solve itself
    distances: np.ndarray | None = None

    @property
    def ok(self) -> bool:
        return not self.violations

    def render(self) -> str:
        head = (
            f"racecheck[{self.num_shards} shards, {self.partitioner}, "
            f"{self.transport}]: {self.writes_checked} writes over "
            f"{self.supersteps} supersteps"
        )
        if self.ok:
            return head + " — ownership contract held"
        lines = [head + f" — {len(self.violations)} violation(s):"]
        lines.extend("  " + v.describe() for v in self.violations)
        return "\n".join(lines)


class WriteTrackingTransport(Transport):
    """A transport decorator attributing every distance write to a shard.

    Wraps *inner* and serializes its ``run`` batch: each step function
    executes alone between two snapshots of the shared *dist* array, so
    the changed indices are exactly that shard's writes for the
    superstep (value-identical stores excepted — see module docstring).
    Violations accumulate on :attr:`violations`; the run itself is never
    interrupted, so one report can name every broken superstep.
    """

    name = "tracking"

    def __init__(self, inner: Transport, dist: np.ndarray, owner: np.ndarray):
        self.inner = inner
        self.dist = dist
        self.owner = owner
        self.supersteps = 0
        self.writes_checked = 0
        self.violations: list = []
        #: per superstep: the per-shard arrays of written vertex ids
        self.write_sets: list = []

    def run(self, fns) -> list:
        step = self.supersteps
        self.supersteps += 1
        results: list = []
        per_shard: list = []
        for fn in fns:
            before = self.dist.copy()
            results.extend(self.inner.run([fn]))
            per_shard.append(np.flatnonzero(self.dist != before))
        self.write_sets.append(per_shard)
        self._check(step, per_shard)
        return results

    def _check(self, step: int, per_shard: list) -> None:
        for shard_id, wrote in enumerate(per_shard):
            self.writes_checked += len(wrote)
            foreign = wrote[self.owner[wrote] != shard_id]
            for owner_id in np.unique(self.owner[foreign]):
                hit = foreign[self.owner[foreign] == owner_id]
                self.violations.append(RaceViolation(
                    kind="foreign-write",
                    superstep=step,
                    shards=(shard_id, int(owner_id)),
                    vertices=tuple(int(v) for v in hit[:_MAX_LISTED]),
                    num_vertices=len(hit),
                ))
        for a in range(len(per_shard)):
            for b in range(a + 1, len(per_shard)):
                both = np.intersect1d(per_shard[a], per_shard[b])
                if len(both):
                    self.violations.append(RaceViolation(
                        kind="overlap",
                        superstep=step,
                        shards=(a, b),
                        vertices=tuple(int(v) for v in both[:_MAX_LISTED]),
                        num_vertices=len(both),
                    ))


def check_sharded_run(
    graph: Graph,
    source: int,
    num_shards: int = 2,
    partitioner: str = "contiguous",
    transport: Transport | str = "inline",
    delta: float | None = None,
    kernel: str = "auto",
    stepper: ShardedDeltaStepper | None = None,
) -> RaceReport:
    """Run one seeded sharded resolve under the write tracker.

    Returns the :class:`RaceReport`; ``report.ok`` means the ownership
    contract held on every superstep.

    *transport* is any :func:`~repro.shard.exchange.make_transport`
    spec or instance; the report carries its
    :attr:`~repro.shard.exchange.Transport.name`.  *stepper* defaults to
    the registered :class:`ShardedDeltaStepper`; the test harness passes
    an intentionally-broken subclass to prove the checker fires on real
    violations.
    """
    n = graph.num_vertices
    dist = np.full(n, INF, dtype=np.float64)
    dist[source] = 0.0
    active = np.zeros(n, dtype=bool)
    active[source] = True
    sg = sharded_view(graph, num_shards, partitioner)
    inner = make_transport(transport)
    tracker = WriteTrackingTransport(inner, dist, sg.owner)
    if stepper is None:
        stepper = ShardedDeltaStepper()
    stepper.resolve(
        graph, dist, active,
        delta=delta, num_shards=num_shards, partitioner=partitioner,
        transport=tracker, sharded=sg, kernel=kernel,
    )
    return RaceReport(
        num_shards=sg.num_shards,
        partitioner=partitioner,
        transport=inner.name,
        supersteps=tracker.supersteps,
        writes_checked=tracker.writes_checked,
        violations=tracker.violations,
        distances=dist,
    )
