"""ShardedDeltaStepper ≡ Dijkstra, across every partition/transport knob,
plus the consumer integrations the registry promises (service batches,
a pinned service's repair, auto-tuner, view caching)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import datasets
from repro.graphs import generators as gen
from repro.graphs.graph import Graph
from repro.parallel.pool import BatchError
from repro.shard import (
    InProcessTransport,
    ShardedDeltaStepper,
    Transport,
    default_num_shards,
    partition_graph,
    sharded_delta_stepping,
    sharded_view,
)
from repro.sssp import dijkstra
from repro.stepping import STEPPERS, default_delta_star, get_stepper, solve_with


@st.composite
def random_graphs(draw, allow_zero_weights=False):
    """Random weighted digraphs up to 40 vertices (zero weights optional)."""
    n = draw(st.integers(2, 40))
    m = draw(st.integers(0, 160))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n, size=m)
    dst = rng.integers(0, n, size=m)
    w = rng.uniform(0.05, 2.0, size=m)
    if allow_zero_weights and m:
        w = np.where(rng.random(m) < 0.3, 0.0, w)
    return Graph.from_edges(src, dst, w, n=n)


class TestBitIdentityProperties:
    """The subsystem's core claim: sharding never changes a distance bit."""

    @pytest.mark.parametrize("partitioner", ["contiguous", "bfs"])
    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_random_graphs(self, partitioner, data):
        g = data.draw(random_graphs())
        source = data.draw(st.integers(0, g.num_vertices - 1))
        shards = data.draw(st.sampled_from([1, 2, 3, 5]))
        r = solve_with("sharded", g, source, num_shards=shards, partitioner=partitioner)
        assert np.array_equal(r.distances, dijkstra(g, source).distances)

    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_zero_weight_graphs(self, data):
        g = data.draw(random_graphs(allow_zero_weights=True))
        source = data.draw(st.integers(0, g.num_vertices - 1))
        r = solve_with("sharded", g, source, num_shards=3)
        assert np.array_equal(r.distances, dijkstra(g, source).distances)

    @given(data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_thread_transport_matches(self, data):
        """The pool transport must land on the same fixed point."""
        g = data.draw(random_graphs())
        source = data.draw(st.integers(0, g.num_vertices - 1))
        r = solve_with("sharded", g, source, num_shards=4, transport="threads:3")
        assert np.array_equal(r.distances, dijkstra(g, source).distances)


class TestEdgeCaseGraphs:
    def test_single_vertex(self):
        r = solve_with("sharded", Graph.empty(1), 0)
        assert np.array_equal(r.distances, [0.0])

    def test_no_edges(self):
        r = solve_with("sharded", Graph.empty(5), 2, num_shards=3)
        expected = np.full(5, np.inf)
        expected[2] = 0.0
        assert np.array_equal(r.distances, expected)

    def test_disconnected_components(self):
        g = Graph.from_edges([0, 1, 3, 4], [1, 2, 4, 5], [1.0, 2.0, 1.0, 1.0], n=6)
        r = solve_with("sharded", g, 0, num_shards=2)
        assert np.array_equal(r.distances, dijkstra(g, 0).distances)
        assert r.num_reached == 3

    def test_all_zero_weights(self):
        g = Graph.from_edges([0, 1, 2], [1, 2, 0], [0.0, 0.0, 0.0], n=3)
        r = solve_with("sharded", g, 0, num_shards=2)
        assert np.array_equal(r.distances, [0.0, 0.0, 0.0])

    def test_source_out_of_range(self):
        with pytest.raises(IndexError):
            solve_with("sharded", gen.grid_2d(3, 3), 99)

    def test_rejects_bad_params(self):
        g = gen.grid_2d(3, 3)
        with pytest.raises(ValueError):
            solve_with("sharded", g, 0, delta=0.0)
        with pytest.raises(ValueError):
            solve_with("sharded", g, 0, num_shards=0)
        with pytest.raises(ValueError):
            solve_with("sharded", g, 0, partitioner="metis")

    def test_non_integer_shards_named_in_error(self):
        """A spec like shards=2.0 must fail naming the knob, not as a
        numpy TypeError deep inside the partitioner."""
        g = gen.grid_2d(3, 3)
        with pytest.raises(ValueError, match="num_shards must be an integer"):
            solve_with("sharded(shards=2.0)", g, 0)
        with pytest.raises(ValueError, match="num_shards must be an integer"):
            solve_with("sharded(shards=four)", g, 0)
        with pytest.raises(ValueError, match="delta must be a number"):
            solve_with("sharded(delta=abc)", g, 0)

    def test_default_num_shards_bounds(self):
        assert default_num_shards(Graph.empty(1)) == 1
        assert default_num_shards(gen.grid_2d(8, 8)) == 4


class _FailingStep(Transport):
    """Runs steps inline, except shard 1's step on the second superstep,
    which raises instead."""

    name = "failing-step"

    def __init__(self):
        self.inner = InProcessTransport()
        self.supersteps = 0

    def run(self, fns):
        self.supersteps += 1
        if self.supersteps == 2:
            fns = [fns[0], self._fail, *fns[2:]]
        return self.inner.run(fns)

    @staticmethod
    def _fail():
        raise RuntimeError("shard step lost")


class TestFailedStep:
    def test_failed_shard_step_fails_the_solve(self):
        """A raising shard step surfaces as the barrier's BatchError,
        naming the shard, instead of returning partial distances."""
        transport = _FailingStep()
        with pytest.raises(BatchError, match=r"\[1\] RuntimeError: shard step lost") as ei:
            ShardedDeltaStepper().solve(
                gen.grid_2d(6, 6), 0, num_shards=3, transport=transport
            )
        assert ei.value.failed_indices == [1]
        assert transport.supersteps == 2


class TestOneShardIsDeltaStar:
    """With one shard there is no boundary, so a superstep is a Δ* step:
    both run the shared relax window over the same batches."""

    @pytest.mark.parametrize("weights", ["unit", "uniform"])
    @pytest.mark.parametrize("name", datasets.suite_names("ci"))
    def test_same_schedule_and_distances(self, name, weights):
        g = datasets.load(name, weights=weights)
        delta = default_delta_star(g)
        star = solve_with("delta-star", g, 0, delta=delta)
        one = solve_with("sharded(shards=1)", g, 0, delta=delta)
        counters = ("buckets_processed", "phases", "relaxations", "updates")
        assert [getattr(one, c) for c in counters] == [getattr(star, c) for c in counters]
        assert np.array_equal(one.distances, star.distances)


class TestRegistryIntegration:
    def test_registered_with_resolve_support(self):
        s = get_stepper("sharded")
        assert isinstance(s, ShardedDeltaStepper)
        assert s.kind == "sharded"
        assert "sharded" in STEPPERS

    def test_result_carries_comm_metrics(self):
        g = gen.grid_2d(8, 8)
        r = sharded_delta_stepping(g, 0, num_shards=4)
        for key in ("shards", "partitioner", "cut_edges", "cut_fraction",
                    "exchanges", "entries_posted", "entries_carried",
                    "entries_applied", "bytes_carried", "transport"):
            assert key in r.extra, key
        assert r.extra["shards"] == 4
        assert r.extra["entries_carried"] > 0  # a mesh cut has traffic

    def test_default_params_reported(self):
        params = get_stepper("sharded").default_params(gen.grid_2d(4, 4))
        assert params["delta"] > 0
        assert params["num_shards"] >= 1
        assert params["partitioner"] in ("contiguous", "bfs")

    def test_resolve_from_seeded_state(self):
        g = Graph.from_edges(
            [0, 0, 1, 2], [1, 2, 2, 3], [2.0, 7.0, 3.0, 1.0], n=4
        )
        d = np.full(4, np.inf)
        d[0] = 0.0
        active = np.zeros(4, dtype=bool)
        active[0] = True
        counters = get_stepper("sharded").resolve(g, d, active, num_shards=2)
        assert np.array_equal(d, [0.0, 2.0, 5.0, 6.0])
        assert not active.any()  # consumed, like every other stepper
        assert counters["updates"] >= 3
        assert "comm" in counters and "params" in counters

    def test_batch_engine_dispatch(self):
        from repro.service.batch import batch_delta_stepping

        g = gen.grid_2d(6, 6)
        res = batch_delta_stepping(g, [0, 7, 20], method="sharded(shards=3)")
        for k, s in enumerate([0, 7, 20]):
            assert np.array_equal(res.distances[k], dijkstra(g, s).distances)

    def test_repair_dispatch(self):
        """A service pinned to ``sharded(shards=3)`` repairs its cached row
        (with the ``delta`` loop) bit-identically through a general
        (delete + insert) mutation batch."""
        from repro.service import QueryService
        from repro.sssp.fused import fused_delta_stepping

        g = gen.road_network(6, 6, seed=5)
        svc = QueryService(g, stepper="sharded(shards=3)")
        svc.query(0)
        src, dst, w = g.to_edges()
        report = svc.mutate(
            inserts=[(int(src[0]), (int(dst[0]) + 3) % g.num_vertices, 0.5)],
            deletes=[(int(src[1]), int(dst[1]))],
        )
        assert report.repaired_entries == 1
        resp = svc.query(0)
        assert resp.from_cache
        assert np.array_equal(resp.distances, fused_delta_stepping(g, 0, 1.0).distances)

    def test_autotuner_races_sharded(self):
        from repro.stepping import AutoTuner

        tuner = AutoTuner(
            candidates=("delta", "sharded(shards=2)"), num_sources=1, repeats=1
        )
        report = tuner.probe(gen.grid_2d(8, 8))
        assert {r.stepper for r in report.rows} == {"delta", "sharded(shards=2)"}


class TestViewCache:
    def test_view_cached_per_epoch(self):
        g = gen.grid_2d(5, 5)
        first = sharded_view(g, 2, "contiguous")
        assert sharded_view(g, 2, "contiguous") is first
        g.epoch += 1
        rebuilt = sharded_view(g, 2, "contiguous")
        assert rebuilt is not first
        assert not rebuilt.is_stale()

    def test_stale_views_all_dropped_on_epoch_bump(self):
        g = gen.grid_2d(5, 5)
        sharded_view(g, 2, "contiguous")
        sharded_view(g, 3, "bfs")
        g.epoch += 1
        sharded_view(g, 2, "contiguous")
        views = g.meta["_shard_views"]
        assert all(not v.is_stale() for v in views.values())

    def test_stale_view_freed_before_the_rebuild(self, monkeypatch):
        import weakref

        import repro.shard.stepper as stepper_mod

        g = gen.grid_2d(5, 5)
        old = weakref.ref(sharded_view(g, 2, "contiguous"))
        alive = []
        build = stepper_mod.partition_graph
        monkeypatch.setattr(
            stepper_mod, "partition_graph",
            lambda *args: alive.append(old() is not None) or build(*args),
        )
        g.epoch += 1
        sharded_view(g, 2, "contiguous")
        assert alive == [False]  # the graph never holds two views of a key

    def test_graph_copy_does_not_inherit_views(self):
        """Graph.copy() drops the `_`-prefixed view cache, so a copy
        builds its own views and the two caches stay independent."""
        g = gen.grid_2d(5, 5)
        view = sharded_view(g, 2, "contiguous")
        clone = g.copy()
        # Graph.copy drops _-prefixed derived caches entirely: no dead
        # views keeping the original's slice arrays alive on the clone
        assert "_shard_views" not in clone.meta
        clone_view = sharded_view(clone, 2, "contiguous")
        assert clone_view is not view
        assert clone_view.graph is clone
        # and the two caches are independent afterwards: re-lookups on
        # either graph are hits, not mutual evictions
        assert sharded_view(g, 2, "contiguous") is view
        assert sharded_view(clone, 2, "contiguous") is clone_view

    def test_explicit_view_must_match_graph(self):
        g, other = gen.grid_2d(4, 4), gen.grid_2d(4, 4)
        sg = partition_graph(other, 2)
        with pytest.raises(ValueError, match="different graph"):
            solve_with("sharded", g, 0, sharded=sg)

    def test_stale_explicit_view_rejected(self):
        g = gen.grid_2d(4, 4)
        sg = partition_graph(g, 2)
        g.epoch += 1
        with pytest.raises(ValueError, match="stale"):
            solve_with("sharded", g, 0, sharded=sg)
