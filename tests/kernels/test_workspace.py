"""Workspace reuse: steady-state phases must not allocate wave buffers."""

import numpy as np
import pytest

from repro.graphs import generators
from repro.kernels import RelaxWorkspace, cached_row_ids
from repro.kernels.workspace import _ROW_IDS_KEY
from repro.sssp.fused import fused_delta_stepping
from repro.sssp.reference import dijkstra


class _RecordingWorkspace(RelaxWorkspace):
    """Counts distinct backing buffers handed out across waves."""

    def __init__(self, n):
        super().__init__(n)
        self.buffer_ids = set()
        self.waves = 0

    def wave_buffers(self, total):
        out = super().wave_buffers(total)
        self.waves += 1
        self.buffer_ids.add(id(out[0].base))
        return out


class TestSteadyStateReuse:
    def test_no_per_phase_allocations_across_solve(self, grid_graph):
        """The ISSUE acceptance check: buffer identity counted across phases.

        After one warmup solve the arena is at capacity; a steady-state
        solve must route every phase's wave through the *same* backing
        buffers with zero growths.
        """
        ws = _RecordingWorkspace(grid_graph.num_vertices)
        # warmup: grows allowed (a pinned kernel, so the NumPy loop uses the arena)
        fused_delta_stepping(grid_graph, 0, 1.0, workspace=ws, kernel="scatter")
        ws.buffer_ids.clear()
        ws.waves = 0
        grows_before = ws.grows
        r = fused_delta_stepping(grid_graph, 0, 1.0, workspace=ws, kernel="scatter")
        assert r.phases > 5  # a real multi-phase run
        # every non-empty relax wave went through the arena (heavy phases
        # on a unit-weight graph carry no edges and skip the gather)
        assert ws.waves >= r.buckets_processed
        assert ws.grows == grows_before  # no new allocations at steady state
        assert len(ws.buffer_ids) == 1  # one backing buffer served every phase

    def test_wave_buffer_views_share_base(self):
        ws = RelaxWorkspace(10)
        f1, t1, d1 = ws.wave_buffers(7)
        f2, t2, d2 = ws.wave_buffers(3)
        assert f1.base is f2.base and t1.base is t2.base and d1.base is d2.base
        assert ws.grows == 1

    def test_growth_is_geometric_and_monotone(self):
        ws = RelaxWorkspace(4)
        ws.wave_buffers(10)
        cap = len(ws._flat)
        ws.wave_buffers(cap)  # fits: no growth
        assert ws.grows == 1
        ws.wave_buffers(cap + 1)
        assert ws.grows == 2
        assert len(ws._flat) >= 2 * cap

    def test_iota_is_a_stable_ramp(self):
        ws = RelaxWorkspace(4)
        assert np.array_equal(ws.iota(5), np.arange(5))
        base = ws._iota
        assert ws.iota(3).base is base

    def test_reset_restores_invariant(self):
        ws = RelaxWorkspace(6)
        ws.req[2] = 1.0
        ws.touched[3] = True
        ws.reset()
        assert np.all(np.isinf(ws.req)) and not ws.touched.any()

    def test_rejects_negative_size(self):
        with pytest.raises(ValueError):
            RelaxWorkspace(-1)


class TestCheckInvariant:
    """``RelaxWorkspace.check()``: the debug assertion of the between-waves
    steady state (req all-inf, touched all-False), wired into the kernel
    property tests and the race harness."""

    def test_fresh_and_reset_arenas_pass(self):
        ws = RelaxWorkspace(8)
        ws.check()
        ws.req[1] = 0.5
        ws.reset()
        ws.check()

    def test_leaked_request_named(self):
        ws = RelaxWorkspace(8)
        ws.req[2] = 1.0
        with pytest.raises(AssertionError, match=r"req not all-inf at keys \[2\]"):
            ws.check()

    def test_stuck_touched_named(self):
        ws = RelaxWorkspace(8)
        ws.touched[5] = True
        with pytest.raises(AssertionError, match=r"touched not all-False at keys \[5\]"):
            ws.check()

    def test_listing_caps_at_eight_with_total(self):
        ws = RelaxWorkspace(32)
        ws.touched[:12] = True
        with pytest.raises(AssertionError, match=r"\(12 total\)"):
            ws.check()

    def test_clean_after_a_full_solve(self, grid_graph):
        ws = RelaxWorkspace(grid_graph.num_vertices)
        fused_delta_stepping(grid_graph, 0, 1.0, workspace=ws, kernel="scatter")
        ws.check()


class TestPerGraphCaching:
    def test_row_ids_cached_per_epoch(self, grid_graph):
        ids1 = cached_row_ids(grid_graph)
        ids2 = cached_row_ids(grid_graph)
        assert ids1 is ids2
        ref = np.repeat(
            np.arange(grid_graph.num_vertices), np.diff(grid_graph.indptr)
        )
        assert np.array_equal(ids1, ref)

    def test_row_ids_recomputed_after_mutation(self, grid_graph):
        from repro.dynamic import apply_edge_updates

        ids_before = cached_row_ids(grid_graph)
        apply_edge_updates(grid_graph, deletes=[(0, 1)])
        ids_after = cached_row_ids(grid_graph)
        assert ids_after is not ids_before
        assert len(ids_after) == grid_graph.num_edges

    def test_row_ids_dropped_on_copy(self, grid_graph):
        cached_row_ids(grid_graph)
        assert _ROW_IDS_KEY not in grid_graph.copy().meta

    def test_split_reuses_one_expansion(self, grid_graph):
        """Light and heavy builds share the cached expansion (the satellite)."""
        from repro.sssp.fused import split_csr_light_heavy

        split_csr_light_heavy(grid_graph, 1.0)
        entry = grid_graph.meta[_ROW_IDS_KEY]
        split_csr_light_heavy(grid_graph, 0.5, fused=False)
        assert grid_graph.meta[_ROW_IDS_KEY] is entry  # no recompute

    @pytest.fixture
    def split_calls(self, monkeypatch):
        """Count the light/heavy splits solves make, through the module
        global the split cache calls on a miss."""
        from repro.sssp import fused

        calls = []
        real = fused.split_csr_light_heavy

        def counting(graph, delta, *args, **kwargs):
            calls.append(delta)
            return real(graph, delta, *args, **kwargs)

        monkeypatch.setattr(fused, "split_csr_light_heavy", counting)
        return calls

    def test_split_cached_per_epoch_and_delta(self, split_calls):
        from repro.dynamic import apply_edge_updates
        from repro.service import QueryService
        from repro.service.batch import batch_delta_stepping
        from repro.sssp.fused import _SPLIT_KEY

        g = generators.grid_2d(5, 5)
        fused_delta_stepping(g, 0, 1.0)
        batch_delta_stepping(g, [0, 3], 1.0)
        fused_delta_stepping(g, 7, 1.0, kernel="argsort")
        assert split_calls == [1.0]  # one split serves every solve on the epoch
        assert _SPLIT_KEY not in g.copy().meta  # copies start without it
        fused_delta_stepping(g, 0, 0.5)
        assert split_calls == [1.0, 0.5]  # a different Δ splits again
        apply_edge_updates(g, reweights=[(0, 1, 3.0)])
        r = fused_delta_stepping(g, 0, 0.5)
        assert split_calls == [1.0, 0.5, 0.5]  # so does a mutation
        assert np.array_equal(r.distances, dijkstra(g, 0).distances)
        svc = QueryService(g)
        svc.query(0)
        n_before = len(split_calls)
        svc.invalidate()
        svc.query(0)
        assert len(split_calls) == n_before + 1  # and an announced raw edit

    def test_stale_split_and_row_ids_freed_before_the_rebuild(self, monkeypatch):
        """An epoch bump never holds two splits, nor two expansions."""
        import weakref

        from repro.graphs.graph import Graph
        from repro.sssp import fused

        g = generators.grid_2d(5, 5)
        old_split = weakref.ref(fused.cached_split(g, 1.0)[0][1])
        old_ids = weakref.ref(cached_row_ids(g))
        alive = []
        split, row_sources = fused.split_csr_light_heavy, Graph.row_sources
        monkeypatch.setattr(
            fused, "split_csr_light_heavy",
            lambda graph, delta: alive.append(old_split() is not None) or split(graph, delta),
        )
        monkeypatch.setattr(
            Graph, "row_sources",
            lambda graph: alive.append(old_ids() is not None) or row_sources(graph),
        )
        g.epoch += 1
        fused.cached_split(g, 1.0)
        assert alive == [False, False]

    def test_recorded_and_unfused_split_solves_split_afresh(self, split_calls):
        from repro.obs import Recorder

        g = generators.grid_2d(4, 4)
        fused_delta_stepping(g, 0, 1.0)
        rec = Recorder()
        for _ in range(2):
            fused_delta_stepping(g, 0, 1.0, recorder=rec)
            fused_delta_stepping(g, 0, 1.0, fuse_matrix_split=False)
        assert len(split_calls) == 5
        assert len(rec.trace.spans("filter:split")) == 2

    def test_solves_correct_after_mutation_with_caches(self):
        """The epoch key keeps cached expansions honest across mutations."""
        from repro.dynamic import apply_edge_updates

        g = generators.grid_2d(5, 5)
        fused_delta_stepping(g, 0, 1.0)  # populate caches
        apply_edge_updates(g, deletes=[(0, 1)])
        r = fused_delta_stepping(g, 0, 1.0)
        assert np.array_equal(r.distances, dijkstra(g, 0).distances)
