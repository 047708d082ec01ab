"""Stepper ≡ Dijkstra equivalence: the subsystem's core correctness claim.

Every stepping algorithm is a schedule over the same min-plus relaxation,
so final distances must be **bit-identical** (``np.array_equal``, not
allclose) to the Dijkstra reference — on random graphs, zero-weight
graphs, disconnected graphs, and the single-vertex graph alike.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import generators as gen
from repro.graphs.graph import Graph
from repro.sssp import dijkstra
from repro.sssp.validate import check_against_dijkstra, check_optimality_conditions
from repro.stepping import (
    default_rho,
    get_stepper,
    solve_with,
    stepper_names,
    vertex_radii,
)

NEW_STEPPERS = ("rho", "radius", "delta-star")


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
    """Property tests: every stepper ≡ Dijkstra, bitwise."""

    @pytest.mark.parametrize("name", NEW_STEPPERS)
    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_random_graphs(self, name, data):
        g = data.draw(random_graphs())
        source = data.draw(st.integers(0, g.num_vertices - 1))
        r = solve_with(name, g, source)
        assert np.array_equal(r.distances, dijkstra(g, source).distances)
        check_against_dijkstra(g, r)  # reuse the validate helpers too
        check_optimality_conditions(g, r)

    @pytest.mark.parametrize("name", NEW_STEPPERS)
    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_zero_weight_graphs(self, name, data):
        """Zero-weight edges (tight cycles, zero-width windows) must not
        break a schedule."""
        g = data.draw(random_graphs(allow_zero_weights=True))
        source = data.draw(st.integers(0, g.num_vertices - 1))
        r = solve_with(name, g, source)
        assert np.array_equal(r.distances, dijkstra(g, source).distances)


class TestEdgeCaseGraphs:
    @pytest.mark.parametrize("name", NEW_STEPPERS)
    def test_single_vertex(self, name):
        g = Graph.empty(1)
        r = solve_with(name, g, 0)
        assert np.array_equal(r.distances, [0.0])

    @pytest.mark.parametrize("name", NEW_STEPPERS)
    def test_disconnected_components(self, name):
        # two components; the second is unreachable from source 0
        g = Graph.from_edges([0, 1, 3, 4], [1, 2, 4, 5], [1.0, 2.0, 1.0, 1.0], n=6)
        r = solve_with(name, g, 0)
        oracle = dijkstra(g, 0).distances
        assert np.array_equal(r.distances, oracle)
        assert r.num_reached == 3

    @pytest.mark.parametrize("name", NEW_STEPPERS)
    def test_no_edges(self, name):
        g = Graph.empty(5)
        r = solve_with(name, g, 2)
        expected = np.full(5, np.inf)
        expected[2] = 0.0
        assert np.array_equal(r.distances, expected)

    @pytest.mark.parametrize("name", NEW_STEPPERS)
    def test_all_zero_weights(self, name):
        g = Graph.from_edges([0, 1, 2], [1, 2, 0], [0.0, 0.0, 0.0], n=3)
        r = solve_with(name, g, 0)
        assert np.array_equal(r.distances, [0.0, 0.0, 0.0])

    @pytest.mark.parametrize("name", NEW_STEPPERS)
    def test_source_out_of_range(self, name):
        with pytest.raises(IndexError):
            solve_with(name, gen.grid_2d(3, 3), 99)

    def test_every_registered_stepper_on_grid(self, grid_graph):
        """The whole registry — legacy wrappers included — agrees on the
        mesh fixture."""
        oracle = dijkstra(grid_graph, 0).distances
        for name in stepper_names():
            r = solve_with(name, grid_graph, 0)
            assert np.array_equal(r.distances, oracle), name


class TestStepperParameters:
    def test_rho_one_is_dijkstra_order(self, diamond_graph):
        """ρ=1 settles one vertex per step — the Dijkstra limit."""
        r = solve_with("rho", diamond_graph, 0, rho=1)
        assert np.array_equal(r.distances, [0.0, 2.0, 5.0, 6.0])
        # 4 reachable vertices, one extraction each (none re-relaxes here)
        assert r.buckets_processed == 4

    def test_rho_infinite_is_bellman_ford(self, diamond_graph):
        """ρ ≥ n relaxes the whole frontier per step — the Bellman–Ford limit."""
        r = solve_with("rho", diamond_graph, 0, rho=10**9)
        assert np.array_equal(r.distances, [0.0, 2.0, 5.0, 6.0])

    def test_rho_rejects_nonpositive(self, diamond_graph):
        with pytest.raises(ValueError):
            solve_with("rho", diamond_graph, 0, rho=0)
        # non-integer spellings name the knob instead of failing in numpy
        with pytest.raises(ValueError, match="rho must be an integer"):
            solve_with("rho(rho=2.5)", diamond_graph, 0)
        with pytest.raises(ValueError, match="rho must be an integer"):
            solve_with("rho(rho=abc)", diamond_graph, 0)

    def test_rho_batch_takes_every_tie(self):
        """The ρ-th distance admits all its ties: after the source step,
        three vertices tie at distance 1 and ρ = 2 takes them together."""
        g = Graph.from_edges([0, 0, 0], [1, 2, 3], [1.0, 1.0, 1.0], n=4)
        r = solve_with("rho", g, 0, rho=2)
        assert r.buckets_processed == 2
        assert np.array_equal(r.distances, [0.0, 1.0, 1.0, 1.0])

    def test_default_rho_floor(self):
        assert default_rho(gen.grid_2d(2, 2)) == 64

    def test_delta_star_rejects_nonpositive(self, diamond_graph):
        with pytest.raises(ValueError):
            solve_with("delta-star", diamond_graph, 0, delta=0.0)
        with pytest.raises(ValueError, match="delta must be a number"):
            solve_with("delta-star(delta=abc)", diamond_graph, 0)

    def test_delta_star_window_is_inclusive(self):
        """A vertex landing exactly on ``min + Δ`` belongs to the window:
        vertex 1 (at 1.0 = 0 + Δ) re-relaxes inside step 1, and only
        vertex 2 waits for step 2 — two steps, three phases."""
        g = Graph.from_edges([0, 0], [1, 2], [1.0, 2.0], n=3)
        r = solve_with("delta-star", g, 0, delta=1.0)
        assert (r.buckets_processed, r.phases) == (2, 3)
        # and at selection time: seeded at exactly the bound, it joins
        # the first batch
        d = np.array([0.0, 1.0, 5.0])
        counters = get_stepper("delta-star").resolve(
            Graph.empty(3), d, np.ones(3, dtype=bool), delta=1.0
        )
        assert counters["steps"] == 2

    def test_delta_star_explicit_delta(self, diamond_graph):
        r = solve_with("delta-star", diamond_graph, 0, delta=100.0)
        assert np.array_equal(r.distances, [0.0, 2.0, 5.0, 6.0])
        assert r.buckets_processed == 1  # one window covers everything

    def test_radius_k_sweep(self, random_weighted_graph):
        oracle = dijkstra(random_weighted_graph, 0).distances
        for k in (1, 2, 5, 50):
            r = solve_with("radius", random_weighted_graph, 0, k=k)
            assert np.array_equal(r.distances, oracle), f"k={k}"


class TestVertexRadii:
    def test_kth_smallest_out_weight(self):
        g = Graph.from_edges([0, 0, 0, 1], [1, 2, 3, 2], [3.0, 1.0, 2.0, 5.0], n=4)
        r1 = vertex_radii(g, 1)
        assert r1[0] == 1.0 and r1[1] == 5.0
        r2 = vertex_radii(g, 2)
        assert r2[0] == 2.0
        # degree < k → infinite radius (never constrains the bound)
        assert np.isinf(r2[1]) and np.isinf(r2[2]) and np.isinf(r2[3])

    def test_empty_graph(self):
        assert np.all(np.isinf(vertex_radii(Graph.empty(3), 1)))

    def test_rejects_bad_k(self, diamond_graph):
        with pytest.raises(ValueError):
            vertex_radii(diamond_graph, 0)
        for bad in (2.5, "abc"):
            with pytest.raises(ValueError, match="k must be an integer"):
                vertex_radii(diamond_graph, bad)
        with pytest.raises(ValueError, match="k must be an integer"):
            solve_with("radius(k=2.5)", diamond_graph, 0)
        with pytest.raises(ValueError, match="k must be an integer"):
            solve_with("radius(k=abc)", diamond_graph, 0)


class TestResolveContract:
    def test_resolve_from_seeded_state(self, diamond_graph):
        """resolve() continues from arbitrary seeded state — the entry
        point each framework stepper's solve seeds with its source."""
        n = diamond_graph.num_vertices
        for name in NEW_STEPPERS:
            d = np.full(n, np.inf)
            d[0] = 0.0
            active = np.zeros(n, dtype=bool)
            active[0] = True
            counters = get_stepper(name).resolve(diamond_graph, d, active)
            assert np.array_equal(d, [0.0, 2.0, 5.0, 6.0]), name
            assert counters["updates"] >= 3

    def test_mismatched_mask_rejected(self, diamond_graph):
        for name in NEW_STEPPERS:
            with pytest.raises(ValueError, match="active mask must match"):
                get_stepper(name).resolve(diamond_graph, np.zeros(4), np.zeros(5, dtype=bool))

    def test_legacy_steppers_reject_resolve(self, diamond_graph):
        # delta included: incremental repair seeds its bucket loop directly
        for name in stepper_names("legacy"):
            with pytest.raises(NotImplementedError):
                get_stepper(name).resolve(diamond_graph, np.zeros(4), np.zeros(4, dtype=bool))

    def test_default_params_reported(self, grid_graph):
        assert "rho" in get_stepper("rho").default_params(grid_graph)
        assert "k" in get_stepper("radius").default_params(grid_graph)
        assert get_stepper("delta-star").default_params(grid_graph)["delta"] > 0
