"""Unit tests for every delta-stepping implementation + the dispatcher."""

import numpy as np
import pytest

from repro.graphs import datasets
from repro.graphs.graph import Graph
from repro.obs import Recorder
from repro.sssp import delta_stepping, dijkstra
from repro.sssp.capi_sssp import capi_delta_stepping
from repro.sssp.fused import fused_delta_stepping
from repro.sssp.graphblas_sssp import graphblas_delta_stepping
from repro.sssp.meyer_sanders import meyer_sanders_delta_stepping
from repro.sssp.parallel import parallel_delta_stepping


@pytest.fixture(params=["capi", "delta", "graphblas", "meyer-sanders", "parallel"])
def method(request):
    return request.param


class TestAllMethods:
    def test_diamond_distances(self, diamond_graph, method):
        r = delta_stepping(diamond_graph, 0, 3.0, method=method)
        assert np.allclose(r.distances, [0.0, 2.0, 5.0, 6.0])

    def test_unit_grid_matches_bfs(self, grid_graph, method):
        from repro.graphs.stats import bfs_levels

        r = delta_stepping(grid_graph, 0, 1.0, method=method)
        lv = bfs_levels(grid_graph, 0)
        assert np.allclose(r.distances, lv.astype(float))

    def test_unreachable_vertices_inf(self, method):
        g = Graph.from_edges([0], [1], n=4)
        r = delta_stepping(g, 0, 1.0, method=method)
        assert r.num_reached == 2
        assert np.isinf(r.distances[2]) and np.isinf(r.distances[3])

    def test_source_only_graph(self, method):
        g = Graph.empty(3)
        r = delta_stepping(g, 1, 1.0, method=method)
        assert r.distances[1] == 0.0
        assert r.num_reached == 1

    def test_invalid_delta_rejected(self, diamond_graph, method):
        with pytest.raises(ValueError):
            delta_stepping(diamond_graph, 0, 0.0, method=method)
        with pytest.raises(ValueError):
            delta_stepping(diamond_graph, 0, -1.0, method=method)

    def test_invalid_source_rejected(self, diamond_graph, method):
        with pytest.raises(IndexError):
            delta_stepping(diamond_graph, 17, 1.0, method=method)

    def test_result_metadata(self, diamond_graph, method):
        r = delta_stepping(diamond_graph, 0, 3.0, method=method)
        assert r.source == 0
        assert r.delta == 3.0
        assert r.buckets_processed > 0
        assert r.phases >= r.buckets_processed


class TestDispatcher:
    def test_unknown_method(self, diamond_graph):
        with pytest.raises(ValueError, match="unknown stepper"):
            delta_stepping(diamond_graph, 0, 1.0, method="quantum")

    def test_auto_delta_unit_weights(self, grid_graph):
        r = delta_stepping(grid_graph, 0)  # delta=None -> auto -> 1.0
        assert r.delta == 1.0

    def test_kwargs_forwarded(self, grid_graph):
        r = delta_stepping(grid_graph, 0, 1.0, method="parallel", num_threads=2)
        assert r.extra["num_threads"] == 2


class TestMeyerSanders:
    def test_strict_equals_vectorized(self, random_weighted_graph):
        a = meyer_sanders_delta_stepping(random_weighted_graph, 0, 0.5, strict=True)
        b = meyer_sanders_delta_stepping(random_weighted_graph, 0, 0.5, strict=False)
        assert a.same_distances(b)
        assert a.buckets_processed == b.buckets_processed
        assert a.phases == b.phases
        assert a.relaxations == b.relaxations

    def test_dijkstra_like_at_min_weight_delta(self, random_weighted_graph):
        r = meyer_sanders_delta_stepping(random_weighted_graph, 0, 0.05)
        assert r.same_distances(dijkstra(random_weighted_graph, 0))


class TestStructuralAgreement:
    """The four bucket implementations walk identical bucket/phase orders."""

    def test_counters_agree_on_unit_weights(self, grid_graph):
        rs = [
            meyer_sanders_delta_stepping(grid_graph, 0, 1.0),
            graphblas_delta_stepping(grid_graph, 0, 1.0),
            capi_delta_stepping(grid_graph, 0, 1.0),
            fused_delta_stepping(grid_graph, 0, 1.0),
            parallel_delta_stepping(grid_graph, 0, 1.0, num_threads=2),
        ]
        assert len({r.buckets_processed for r in rs}) == 1
        assert len({r.phases for r in rs}) == 1

    def test_delta_one_bucket_per_level(self, grid_graph):
        """§VII: Δ=1 on unit weights ⇒ one bucket per BFS level."""
        from repro.graphs.stats import bfs_levels

        r = fused_delta_stepping(grid_graph, 0, 1.0)
        assert r.buckets_processed == bfs_levels(grid_graph, 0).max() + 1


class TestInstrumentation:
    """The §VI.C stages arrive as recorder spans named by stage."""

    def test_fused_profile_stages(self, grid_graph):
        rec = Recorder()
        fused_delta_stepping(grid_graph, 0, 1.0, recorder=rec)
        names = {s["name"] for s in rec.trace.spans()}
        assert {"filter:split", "outer:check", "relax:fused"} <= names

    def test_unfused_profile_includes_matrix_filters(self, grid_graph):
        rec = Recorder()
        graphblas_delta_stepping(grid_graph, 0, 1.0, recorder=rec)
        (al,) = rec.trace.spans("filter:AL")
        (ah,) = rec.trace.spans("filter:AH")
        assert al["dur_us"] > 0 and ah["dur_us"] > 0
        assert rec.trace.spans("vxm:light")


class TestFusionToggles:
    @pytest.mark.parametrize("fuse_relax", [False, True])
    @pytest.mark.parametrize("fuse_matrix_split", [False, True])
    def test_all_combos_correct(self, random_weighted_graph, fuse_relax, fuse_matrix_split):
        # a zero-weight light edge: the unfused split must keep 0 -> 1
        zero_chain = Graph.from_edges([0, 1], [1, 2], [0.0, 0.5], n=3)
        for g in (random_weighted_graph, zero_chain):
            oracle = dijkstra(g, 0)
            r = fused_delta_stepping(
                g, 0, 0.4, fuse_relax=fuse_relax, fuse_matrix_split=fuse_matrix_split,
            )
            assert r.same_distances(oracle)


class TestParallel:
    @pytest.mark.parametrize("threads", [1, 2, 4])
    def test_thread_counts_correct(self, random_weighted_graph, threads):
        oracle = dijkstra(random_weighted_graph, 0)
        r = parallel_delta_stepping(random_weighted_graph, 0, 0.4, num_threads=threads)
        assert r.same_distances(oracle)
        assert r.extra["num_threads"] == threads

    def test_forced_chunking_still_correct(self, grid_graph):
        oracle = dijkstra(grid_graph, 0)
        r = parallel_delta_stepping(grid_graph, 0, 1.0, num_threads=3, min_parallel_size=0)
        assert r.same_distances(oracle)


class TestSkipEmptyBuckets:
    def test_sparse_buckets_same_result(self):
        # weights clustered near 1.0 with delta 0.1 -> most buckets empty
        g = Graph.from_edges(
            [0, 1, 2, 3], [1, 2, 3, 4], [1.0, 1.0, 1.0, 1.0], n=5
        )
        a = graphblas_delta_stepping(g, 0, 0.1, skip_empty_buckets=True)
        b = graphblas_delta_stepping(g, 0, 0.1, skip_empty_buckets=False)
        assert a.same_distances(b)
        assert a.buckets_processed <= b.buckets_processed
