"""repair_sssp: handcrafted scenarios + property tests vs full recompute."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dynamic import apply_edge_updates, repair_sssp
from repro.dynamic.incremental import affected_vertices
from repro.graphs import generators as gen
from repro.graphs.graph import Graph
from repro.sssp.fused import fused_delta_stepping


def _solve(graph, source=0, delta=1.0):
    return fused_delta_stepping(graph, source, delta).distances


def _check(graph, source, d0, applied, delta=1.0):
    rep = repair_sssp(graph, source, d0, applied, delta=delta)
    oracle = _solve(graph, source, delta)
    assert np.array_equal(rep.distances, oracle)
    return rep


class TestScenarios:
    def test_decrease_shortcut(self, diamond_graph):
        d0 = _solve(diamond_graph)
        applied = apply_edge_updates(diamond_graph, reweights=[(0, 2, 1.0)])
        rep = _check(diamond_graph, 0, d0, applied)
        assert rep.mode == "decrease-only"
        assert rep.distances[2] == 1.0
        assert rep.distances[3] == 2.0

    def test_insert_shortcut(self, diamond_graph):
        d0 = _solve(diamond_graph)
        applied = apply_edge_updates(diamond_graph, inserts=[(0, 3, 0.5)])
        rep = _check(diamond_graph, 0, d0, applied)
        assert rep.mode == "decrease-only"
        assert rep.distances[3] == 0.5

    def test_increase_on_shortest_path(self, diamond_graph):
        d0 = _solve(diamond_graph)
        applied = apply_edge_updates(diamond_graph, reweights=[(0, 1, 10.0)])
        rep = _check(diamond_graph, 0, d0, applied)
        assert rep.mode == "general"
        assert rep.affected >= 1
        # the 0 -> 2 chord takes over
        assert rep.distances[2] == 7.0

    def test_delete_disconnects(self):
        g = Graph.from_edges([0, 1], [1, 2], [1.0, 1.0], n=3)
        d0 = _solve(g)
        applied = apply_edge_updates(g, deletes=[(1, 2)])
        rep = _check(g, 0, d0, applied)
        assert not np.isfinite(rep.distances[2])

    def test_delete_off_tree_edge_is_cheap(self, diamond_graph):
        # 0 -> 2 (weight 7) is not on any shortest path: nothing to repair
        d0 = _solve(diamond_graph)
        applied = apply_edge_updates(diamond_graph, deletes=[(0, 2)])
        rep = _check(diamond_graph, 0, d0, applied)
        assert rep.affected == 0
        assert rep.phases == 0

    def test_mixed_batch(self, diamond_graph):
        d0 = _solve(diamond_graph)
        applied = apply_edge_updates(
            diamond_graph,
            inserts=[(1, 3, 0.5)],
            deletes=[(2, 3)],
            reweights=[(0, 1, 3.0)],
        )
        rep = _check(diamond_graph, 0, d0, applied)
        assert rep.mode == "general"
        assert rep.distances[3] == 3.5

    def test_decreased_edge_losing_its_worsened_tail(self):
        """Regression: a decreased edge whose tail is worsened in the same
        batch must still invalidate its head — old-weight tightness is
        lost for decreases too, not only for deletes/increases."""
        # source -> 1 -> 2 -> 3 chain; distances 0, 1, 2, 3
        g = Graph.from_edges([0, 1, 2], [1, 2, 3], [1.0, 1.0, 1.0], n=4)
        d0 = _solve(g)
        # worsen 1 -> 2 (tail side) while decreasing 2 -> 3
        applied = apply_edge_updates(g, reweights=[(1, 2, 5.0), (2, 3, 0.9)])
        rep = _check(g, 0, d0, applied)
        assert rep.distances[3] == 0 + 1.0 + 5.0 + 0.9

    def test_zero_weight_edges_use_conservative_closure(self):
        g = Graph.from_edges(
            [0, 1, 2, 3, 0], [1, 2, 3, 1, 4], [0.0, 0.0, 0.0, 0.0, 2.0], n=5
        )
        d0 = _solve(g)
        applied = apply_edge_updates(g, deletes=[(0, 1)])
        rep = _check(g, 0, d0, applied)
        assert rep.mode == "general"
        assert not np.isfinite(rep.distances[1])
        # the chain 0 -> 1 -> 2 puts vertex 1 at distance exactly 0
        chain = Graph.from_edges([0, 1], [1, 2], [0.0, 0.5], n=3)
        d0 = _solve(chain)
        applied = apply_edge_updates(chain, reweights=[(1, 2, 2.0)])
        rep = _check(chain, 0, d0, applied)
        assert rep.mode == "general"
        assert np.array_equal(rep.distances, [0.0, 0.0, 2.0])

    def test_noop_batch(self, diamond_graph):
        d0 = _solve(diamond_graph)
        applied = apply_edge_updates(diamond_graph, reweights=[(0, 1, 2.0)])
        rep = _check(diamond_graph, 0, d0, applied)
        assert rep.mode == "noop"
        assert rep.phases == 0

    def test_validate_flag_passes_on_correct_repair(self, diamond_graph):
        d0 = _solve(diamond_graph)
        applied = apply_edge_updates(diamond_graph, reweights=[(0, 1, 4.0)])
        rep = repair_sssp(diamond_graph, 0, d0, applied, delta=1.0, validate=True)
        assert rep.distances[1] == 4.0

    def test_read_only_input_accepted(self, diamond_graph):
        d0 = _solve(diamond_graph)
        d0.flags.writeable = False
        applied = apply_edge_updates(diamond_graph, reweights=[(0, 1, 4.0)])
        rep = repair_sssp(diamond_graph, 0, d0, applied, delta=1.0)
        assert d0[1] == 2.0  # input untouched
        assert rep.distances[1] == 4.0

    def test_bad_inputs(self, diamond_graph):
        d0 = _solve(diamond_graph)
        applied = apply_edge_updates(diamond_graph, reweights=[(0, 1, 4.0)])
        with pytest.raises(IndexError):
            repair_sssp(diamond_graph, 99, d0, applied)
        with pytest.raises(ValueError):
            repair_sssp(diamond_graph, 0, d0[:2], applied)
        with pytest.raises(ValueError):
            repair_sssp(diamond_graph, 0, d0, applied, delta=0.0)


class TestAffectedSet:
    def test_source_never_affected(self):
        g = Graph.from_edges([0, 1], [1, 2], [1.0, 1.0], n=3)
        d0 = _solve(g)
        applied = apply_edge_updates(g, reweights=[(0, 1, 3.0)])
        aff = affected_vertices(g, d0, applied.worsening_edges(), source=0)
        assert not aff[0]
        assert aff[1] and aff[2]

    def test_surviving_support_not_affected(self):
        # two disjoint unit paths to 2; worsening one leaves 2 supported
        g = Graph.from_edges([0, 0, 1, 3], [1, 3, 2, 2], [1.0, 1.0, 1.0, 1.0], n=4)
        d0 = _solve(g)
        applied = apply_edge_updates(g, reweights=[(1, 2, 5.0)])
        aff = affected_vertices(g, d0, applied.worsening_edges(), source=0)
        assert not aff[2]  # still tight via 3 -> 2


class TestProperties:
    @given(st.integers(0, 2**31 - 1), st.integers(8, 50))
    @settings(max_examples=40, deadline=None)
    def test_repair_equals_recompute_random_batches(self, seed, n):
        rng = np.random.default_rng(seed)
        m = 4 * n
        g = Graph.from_edges(
            rng.integers(0, n, m), rng.integers(0, n, m),
            rng.uniform(0.05, 1.0, m), n=n,
        )
        delta = 0.4
        d0 = _solve(g, 0, delta)
        src_all = np.repeat(np.arange(n, dtype=np.int64), np.diff(g.indptr))
        stored = len(src_all)
        pick = rng.choice(stored, size=min(6, stored), replace=False)
        reweights = (
            src_all[pick[:3]],
            g.indices[pick[:3]],
            g.weights[pick[:3]] * rng.uniform(0.3, 2.0, size=len(pick[:3])),
        )
        deletes = (src_all[pick[3:]], g.indices[pick[3:]])
        inserts = []
        for _ in range(40):
            u, v = int(rng.integers(n)), int(rng.integers(n))
            if u != v and g.edge_weight(u, v) is None:
                inserts.append((u, v, float(rng.uniform(0.05, 1.0))))
                break
        applied = apply_edge_updates(g, inserts=inserts, deletes=deletes, reweights=reweights)
        _check(g, 0, d0, applied, delta=delta)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_repair_on_unit_grid_deletes(self, seed):
        rng = np.random.default_rng(seed)
        g = gen.grid_2d(8, 8)
        d0 = _solve(g)
        src_all = np.repeat(np.arange(g.num_vertices, dtype=np.int64), np.diff(g.indptr))
        upper = np.nonzero(src_all < g.indices)[0]
        pick = rng.choice(upper, size=3, replace=False)
        applied = apply_edge_updates(
            g, deletes=(src_all[pick], g.indices[pick])
        )
        _check(g, 0, d0, applied)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_sequential_batches_compose(self, seed):
        """Repairing batch after batch tracks the truth across epochs."""
        rng = np.random.default_rng(seed)
        g = gen.watts_strogatz(40, k=4, beta=0.2, seed=int(seed % 1000))
        d = _solve(g)
        for _ in range(3):
            src_all = np.repeat(np.arange(g.num_vertices, dtype=np.int64), np.diff(g.indptr))
            upper = np.nonzero(src_all < g.indices)[0]
            p = int(rng.choice(upper))
            applied = apply_edge_updates(
                g, reweights=[(int(src_all[p]), int(g.indices[p]), float(rng.uniform(0.2, 3.0)))]
            )
            rep = repair_sssp(g, 0, d, applied, delta=1.0)
            d = rep.distances
        assert np.array_equal(d, _solve(g))
        assert g.epoch == 3
