"""Property-based equivalence: every paper formulation, looked up in the
stepper registry, is bit-identical to Dijkstra on random graphs across Δ
— the repo's strongest correctness statement."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.graphs.graph import Graph
from repro.ir.translate import run_delta_stepping_ir
from repro.service.batch import batch_delta_stepping
from repro.sssp import dijkstra
from repro.sssp.validate import check_against_dijkstra, check_optimality_conditions
from repro.stepping import get_stepper


def solve(name, g, src, delta, **kw):
    return get_stepper(name).solve(g, src, delta=delta, **kw)


def assert_bitwise_dijkstra(name, g, src, delta, **kw):
    r = solve(name, g, src, delta, **kw)
    assert np.array_equal(r.distances, dijkstra(g, src).distances), (name, delta)


#: 0→1 (w=1), 1→2 (w=0), 2→3 (w=0), 3→4 (w=1), solved from 1: vertex 2
#: is first reached at distance 0, and 3 and 4 only through it
CHAIN = Graph.from_edges([0, 1, 2, 3], [1, 2, 3, 4], [1.0, 0.0, 0.0, 1.0], n=5)
CHAIN_CASE = (CHAIN, 1, 1.0)


@st.composite
def random_graphs(draw):
    """Random weighted digraphs up to 40 vertices, a fifth of the edges
    weighing zero."""
    n = draw(st.integers(2, 40))
    m = draw(st.integers(0, 160))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n, size=m)
    dst = rng.integers(0, n, size=m)
    w = rng.uniform(0.05, 2.0, size=m)
    w = np.where(rng.random(m) < 0.2, 0.0, w)
    return Graph.from_edges(src, dst, w, n=n)


@st.composite
def graph_and_params(draw):
    g = draw(random_graphs())
    source = draw(st.integers(0, g.num_vertices - 1))
    delta = draw(st.sampled_from([0.1, 0.3, 1.0, 2.5, 100.0]))
    return g, source, delta


class TestEquivalenceProperties:
    @example(CHAIN_CASE)
    @given(graph_and_params())
    @settings(max_examples=25, deadline=None)
    def test_fused_equals_dijkstra(self, gp):
        g, src, delta = gp
        assert_bitwise_dijkstra("delta", g, src, delta)

    @example(CHAIN_CASE)
    @given(graph_and_params())
    @settings(max_examples=15, deadline=None)
    def test_graphblas_equals_dijkstra(self, gp):
        g, src, delta = gp
        assert_bitwise_dijkstra("graphblas", g, src, delta)

    @example(CHAIN_CASE)
    @given(graph_and_params())
    @settings(max_examples=15, deadline=None)
    def test_meyer_sanders_equals_dijkstra(self, gp):
        g, src, delta = gp
        assert_bitwise_dijkstra("meyer-sanders", g, src, delta)

    @example(CHAIN_CASE)
    @given(graph_and_params())
    @settings(max_examples=10, deadline=None)
    def test_capi_equals_dijkstra(self, gp):
        g, src, delta = gp
        # the Fig. 2 listing steps i by 1; cap bucket count for tiny deltas
        if delta < 1.0:
            delta = 1.0
        assert_bitwise_dijkstra("capi", g, src, delta)

    @example(CHAIN_CASE)
    @given(graph_and_params())
    @settings(max_examples=12, deadline=None)
    def test_parallel_equals_dijkstra(self, gp):
        g, src, delta = gp
        assert_bitwise_dijkstra("parallel", g, src, delta, num_threads=2, min_parallel_size=0)

    @given(graph_and_params())
    @settings(max_examples=20, deadline=None)
    def test_optimality_conditions_hold(self, gp):
        g, src, delta = gp
        r = solve("delta", g, src, delta)
        check_optimality_conditions(g, r)

    @given(random_graphs(), st.integers(0, 3))
    @settings(max_examples=15, deadline=None)
    def test_delta_invariance(self, g, src_seed):
        """Distances must not depend on Δ."""
        src = src_seed % g.num_vertices
        results = [solve("delta", g, src, d) for d in (0.2, 1.0, 7.0)]
        for r in results[1:]:
            assert np.array_equal(results[0].distances, r.distances)

    @given(random_graphs())
    @settings(max_examples=15, deadline=None)
    def test_distances_monotone_under_edge_addition(self, g):
        """Adding an edge can only shorten distances."""
        if g.num_vertices < 3:
            return
        before = solve("delta", g, 0, 1.0).distances
        src, dst, w = g.to_edges()
        g2 = Graph.from_edges(
            np.concatenate([src, [0]]),
            np.concatenate([dst, [g.num_vertices - 1]]),
            np.concatenate([w, [0.05]]),
            n=g.num_vertices,
        )
        after = solve("delta", g2, 0, 1.0).distances
        assert np.all(after <= before + 1e-9)


class TestZeroWeightChain:
    """Every GraphBLAS formulation — single-source, C API, batched as a
    per-source loop, and the IR program — relaxes past a vertex first
    reached at distance 0."""

    expected = [np.inf, 0.0, 0.0, 0.0, 1.0]

    def test_dijkstra_reference(self):
        assert np.array_equal(dijkstra(CHAIN, 1).distances, self.expected)

    @pytest.mark.parametrize("name", ["graphblas", "capi"])
    def test_single_source(self, name):
        assert np.array_equal(solve(name, CHAIN, 1, 1.0).distances, self.expected)

    def test_batch_graphblas(self):
        res = batch_delta_stepping(CHAIN, [1, 0], delta=1.0, method="graphblas")
        assert np.array_equal(res.distances[0], self.expected)
        assert np.array_equal(res.distances[1], dijkstra(CHAIN, 0).distances)

    @pytest.mark.parametrize("fuse", [False, True])
    def test_ir_program(self, fuse):
        res = run_delta_stepping_ir(CHAIN, 1, 1.0, fuse=fuse)
        assert np.array_equal(res.distances, self.expected)


class TestValidateHelpers:
    def test_check_against_dijkstra_detects_corruption(self, diamond_graph):
        from repro.sssp.validate import ValidationError

        r = solve("delta", diamond_graph, 0, 1.0)
        r.distances[2] += 1.0
        with pytest.raises(ValidationError):
            check_against_dijkstra(diamond_graph, r)

    def test_optimality_detects_infeasible(self, diamond_graph):
        from repro.sssp.validate import ValidationError

        r = solve("delta", diamond_graph, 0, 1.0)
        r.distances[3] = 100.0
        with pytest.raises(ValidationError):
            check_optimality_conditions(diamond_graph, r)

    def test_optimality_detects_too_small(self, diamond_graph):
        from repro.sssp.validate import ValidationError

        r = solve("delta", diamond_graph, 0, 1.0)
        r.distances[3] = 0.5  # not achievable by any incoming edge
        with pytest.raises(ValidationError):
            check_optimality_conditions(diamond_graph, r)

    def test_networkx_crosscheck(self, random_weighted_graph):
        from repro.sssp.validate import check_against_networkx

        r = solve("delta", random_weighted_graph, 0, 0.5)
        check_against_networkx(random_weighted_graph, r)
