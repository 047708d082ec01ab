"""The write-set race harness: every registered sharded configuration must
hold the ownership contract, and an intentionally-broken stepper must be
caught with the shard pair, superstep, and vertices named."""

import numpy as np
import pytest

from repro.analysis import (
    RaceViolation,
    WriteTrackingTransport,
    check_sharded_run,
)
from repro.graphs.graph import Graph
from repro.shard.exchange import Transport, make_transport
from repro.shard.partition import PARTITIONERS
from repro.shard.stepper import ShardedDeltaStepper
from repro.sssp import dijkstra

SHARD_COUNTS = (1, 2, 3)

#: one cell per way shard steps run: the two registered spellings
TRANSPORT_CELLS = {
    "inline": lambda: "inline",
    "threads": lambda: "threads",
}


@pytest.fixture(scope="module")
def harness_graph():
    """A graph big enough for real multi-superstep traffic on 3 shards."""
    rng = np.random.default_rng(7)
    m = 900
    src = rng.integers(0, 150, size=m)
    dst = rng.integers(0, 150, size=m)
    w = rng.uniform(0.1, 2.0, size=m)
    return Graph.from_edges(src, dst, w, n=150, name="race150")


class TestContractHolds:
    @pytest.mark.parametrize("transport", sorted(TRANSPORT_CELLS))
    @pytest.mark.parametrize("partitioner", sorted(PARTITIONERS))
    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    def test_every_registered_config(self, harness_graph, num_shards,
                                     partitioner, transport):
        cell = TRANSPORT_CELLS[transport]()
        report = check_sharded_run(
            harness_graph, 0, num_shards=num_shards,
            partitioner=partitioner, transport=cell,
        )
        assert report.ok, report.render()
        assert report.transport == make_transport(cell).name
        assert report.supersteps > 0 and report.writes_checked > 0
        # the tracker must observe, never perturb: the tracked solve
        # still lands on the exact Dijkstra fixed point
        assert np.array_equal(
            report.distances, dijkstra(harness_graph, 0).distances
        )
        assert "ownership contract held" in report.render()

    def test_kernel_pins_also_hold(self, harness_graph):
        for kernel in ("argsort", "scatter"):
            report = check_sharded_run(harness_graph, 0, num_shards=3, kernel=kernel)
            assert report.ok, report.render()

    def test_diamond_smoke(self, diamond_graph):
        report = check_sharded_run(diamond_graph, 0, num_shards=2)
        assert report.ok
        assert np.array_equal(report.distances, [0.0, 2.0, 5.0, 6.0])


class _Saboteur(Transport):
    """Wraps the tracked transport and makes shard 0's step scribble one
    foreign vertex directly into ``dist`` — exactly the write the
    ownership contract forbids."""

    name = "saboteur"

    def __init__(self, inner, dist, victim):
        self.inner = inner
        self.dist = dist
        self.victim = victim
        self.fired = False

    def run(self, fns):
        def scribble(step=fns[0]):
            out = step()
            if not self.fired:
                self.fired = True
                self.dist[self.victim] = 0.0
            return out

        return self.inner.run([scribble, *fns[1:]])


class ScribblingStepper(ShardedDeltaStepper):
    """The intentionally-broken fixture: a conforming sharded solve whose
    shard 0 writes a vertex owned by shard 1, once."""

    def resolve(self, graph, dist, active, **kw):
        sg = kw["sharded"]
        foreign = np.flatnonzero(sg.owner == 1)
        self.victim = int(foreign[-1])
        kw["transport"] = _Saboteur(kw["transport"], dist, self.victim)
        return super().resolve(graph, dist, active, **kw)


class TestBrokenStepperIsCaught:
    def test_foreign_write_flagged_with_details(self, harness_graph):
        stepper = ScribblingStepper()
        report = check_sharded_run(
            harness_graph, 0, num_shards=2, stepper=stepper
        )
        assert not report.ok
        hits = [v for v in report.violations if v.kind == "foreign-write"
                and stepper.victim in v.vertices]
        assert hits, report.render()
        v = hits[0]
        assert v.shards == (0, 1)  # writer, owner
        assert v.superstep == 0  # the saboteur fires on the first superstep
        assert v.num_vertices >= 1
        rendered = report.render()
        assert "violation" in rendered and str(stepper.victim) in rendered
        assert f"shard {v.shards[0]} wrote" in v.describe()

    def test_conforming_stepper_instance_stays_clean(self, harness_graph):
        report = check_sharded_run(
            harness_graph, 0, num_shards=2, stepper=ShardedDeltaStepper()
        )
        assert report.ok


class TestWriteTrackingTransport:
    """Unit-level attribution: hand-built step functions, known writes."""

    def _tracker(self, n=8, num_shards=2):
        dist = np.full(n, np.inf)
        owner = (np.arange(n) * num_shards // n).astype(np.int64)
        tracker = WriteTrackingTransport(make_transport("inline"), dist, owner)
        return tracker, dist, owner

    def test_owned_writes_pass(self):
        tracker, dist, owner = self._tracker()

        def shard0():
            dist[1] = 1.0

        def shard1():
            dist[6] = 2.0

        tracker.run([shard0, shard1])
        assert tracker.violations == []
        assert tracker.supersteps == 1 and tracker.writes_checked == 2
        assert [w.tolist() for w in tracker.write_sets[0]] == [[1], [6]]

    def test_foreign_write_attributed_to_writer(self):
        tracker, dist, owner = self._tracker()

        def shard0():
            dist[6] = 3.0  # owned by shard 1

        tracker.run([shard0, lambda: None])
        (v,) = tracker.violations
        assert v.kind == "foreign-write"
        assert v.shards == (0, 1) and v.vertices == (6,)

    def test_overlapping_writes_flagged_pairwise(self):
        tracker, dist, owner = self._tracker()

        def shard0():
            dist[2] = 5.0

        def shard1():
            dist[2] = 3.0  # same vertex, same superstep

        tracker.run([shard0, shard1])
        kinds = sorted(v.kind for v in tracker.violations)
        # shard 1 doesn't own vertex 2, so both the foreign write and the
        # pairwise overlap are reported
        assert kinds == ["foreign-write", "overlap"]
        overlap = [v for v in tracker.violations if v.kind == "overlap"][0]
        assert overlap.shards == (0, 1) and overlap.vertices == (2,)
        assert "both wrote" in overlap.describe()

    def test_violation_listing_truncates(self):
        tracker, dist, owner = self._tracker(n=40)

        def shard0():
            dist[20:40] = 1.0  # 20 foreign writes, listed capped at 8

        tracker.run([shard0, lambda: None])
        (v,) = tracker.violations
        assert v.num_vertices == 20 and len(v.vertices) == 8
        assert "… (20 total)" in v.describe()

    def test_results_pass_through(self):
        tracker, dist, owner = self._tracker()
        out = tracker.run([lambda: "a", lambda: "b"])
        assert out == ["a", "b"]


class TestRaceViolationRendering:
    def test_describe_both_kinds(self):
        fw = RaceViolation("foreign-write", 3, (1, 2), (7, 9), 2)
        ov = RaceViolation("overlap", 1, (0, 1), (4,), 1)
        assert "superstep 3: shard 1 wrote 2 vertex(es) owned by shard 2" in fw.describe()
        assert "shards 0 and 1 both wrote" in ov.describe()
