"""Registry discovery and the per-graph auto-tuner."""

import numpy as np
import pytest

from repro.graphs import generators as gen
from repro.sssp.delta import DELTA_STRATEGIES, choose_delta
from repro.stepping import (
    DEFAULT_CANDIDATES,
    STEPPERS,
    AutoTuner,
    FunctionStepper,
    best_stepper,
    get_stepper,
    parse_stepper_spec,
    register_stepper,
    resolve_stepper_spec,
    stepper_names,
)


class TestRegistry:
    def test_all_expected_members(self):
        assert {"rho", "radius", "delta-star", "delta", "graphblas",
                "dijkstra", "bellman-ford", "sharded"} <= set(STEPPERS)

    def test_kind_filter(self):
        assert set(stepper_names(kind="stepping")) == {"rho", "radius", "delta-star"}
        assert "delta" in stepper_names(kind="legacy")
        assert stepper_names(kind="sharded") == ["sharded"]

    def test_unknown_stepper_error_enumerates_registry(self):
        """The ValueError names every registered algorithm — the same
        discovery contract as ``choose_delta``'s strategy error."""
        with pytest.raises(ValueError) as excinfo:
            get_stepper("warp-drive")
        message = str(excinfo.value)
        assert "warp-drive" in message
        for name in STEPPERS:
            assert name in message

    def test_choose_delta_error_enumerates_its_registry(self):
        """Companion check: the Δ-strategy registry keeps the same
        one-registry enumeration contract the steppers adopted."""
        with pytest.raises(ValueError) as excinfo:
            choose_delta(gen.grid_2d(2, 2), "warp-drive")
        message = str(excinfo.value)
        for name in ("auto", *DELTA_STRATEGIES):
            assert name in message

    def test_register_stepper_roundtrip(self):
        probe = FunctionStepper("test-probe", lambda g, s, **kw: None, description="x")
        register_stepper(probe)
        try:
            assert get_stepper("test-probe") is probe
            assert "test-probe" in stepper_names()
        finally:
            del STEPPERS["test-probe"]

    def test_one_registry_of_distinct_instances(self):
        """Every formulation is registered once: the paper's five, the new
        steppers, the baselines, and the sharded backend."""
        assert len(STEPPERS) == 11
        assert len({id(s) for s in STEPPERS.values()}) == 11
        assert {"meyer-sanders", "capi", "parallel"} <= set(STEPPERS)

    def test_function_stepper_resolves_auto_delta(self):
        g = gen.grid_2d(4, 4)
        for name in ("delta", "graphblas", "meyer-sanders", "capi", "parallel"):
            stepper = get_stepper(name)
            assert stepper.default_params(g) == {"delta": None}
            assert stepper.solve(g, 0).delta == choose_delta(g), name
            assert stepper.solve(g, 0, delta=None).delta == choose_delta(g), name

    def test_default_candidates_are_registered(self):
        for spec in DEFAULT_CANDIDATES:
            assert parse_stepper_spec(spec)[0] in STEPPERS


class TestStepperSpecs:
    """Parameterized candidate specs: ``name(k=v, ...)``."""

    def test_bare_name_passes_through(self):
        assert parse_stepper_spec("rho") == ("rho", {})

    def test_params_parse_with_types(self):
        name, params = parse_stepper_spec("sharded(shards=4, partitioner=bfs)")
        assert name == "sharded"
        assert params == {"shards": 4, "partitioner": "bfs"}
        assert isinstance(params["shards"], int)

    def test_float_param(self):
        assert parse_stepper_spec("delta-star(delta=2.5)")[1] == {"delta": 2.5}

    def test_resolve_normalizes_aliases(self):
        stepper, params = resolve_stepper_spec("sharded(shards=2)")
        assert stepper.name == "sharded"
        assert params == {"num_shards": 2}

    def test_aliases_are_per_stepper(self):
        """Alias tables live on the stepper: another member's ``shards=``
        must pass through unrenamed (its solve() will reject it itself)."""
        _, params = resolve_stepper_spec("rho(shards=3)")
        assert params == {"shards": 3}

    def test_resolve_rejects_unknown_name(self):
        with pytest.raises(ValueError):
            resolve_stepper_spec("warp-drive(x=1)")

    @pytest.mark.parametrize("bad", ["rho(", "rho(x)", "rho(=1)", "rho(x=)"])
    def test_malformed_specs_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_stepper_spec(bad)

    def test_spec_solve_matches_explicit_params(self, grid_graph):
        from repro.stepping import solve_with

        a = solve_with("sharded(shards=3)", grid_graph, 0)
        b = solve_with("sharded", grid_graph, 0, num_shards=3)
        assert np.array_equal(a.distances, b.distances)
        assert a.extra["shards"] == 3


class TestAutoTuner:
    def test_probe_races_all_candidates(self, grid_graph):
        tuner = AutoTuner(num_sources=1, repeats=1)
        report = tuner.probe(grid_graph)
        assert {r.stepper for r in report.rows} == set(DEFAULT_CANDIDATES)
        assert all(r.ms_per_source > 0 for r in report.rows)
        assert report.best in DEFAULT_CANDIDATES

    def test_report_cached_per_epoch(self, grid_graph):
        tuner = AutoTuner(num_sources=1, repeats=1)
        first = tuner.report_for(grid_graph)
        assert tuner.report_for(grid_graph) is first  # cache hit, no re-probe
        grid_graph.epoch += 1  # what apply_edge_updates does
        assert tuner.report_for(grid_graph) is not first

    def test_stale_epochs_evicted_on_reprobe(self, grid_graph):
        """Epochs are monotone: probing epoch e+1 drops the epoch-e report,
        so a long-lived tuner doesn't accumulate one entry per mutation."""
        tuner = AutoTuner(num_sources=1, repeats=1)
        tuner.report_for(grid_graph)
        grid_graph.epoch += 1
        tuner.report_for(grid_graph)
        assert len(tuner._reports) == 1

    def test_dead_graph_reports_purged(self):
        """A collected graph's reports are retired (the id-reuse guard)."""
        import gc

        tuner = AutoTuner(num_sources=1, repeats=1)
        g = gen.grid_2d(4, 4)
        tuner.report_for(g)
        assert len(tuner._reports) == 1
        del g
        gc.collect()
        tuner._purge_dead()
        assert len(tuner._reports) == 0
        assert not tuner._tracked_gids

    def test_best_stepper_deterministic_given_report(self, grid_graph):
        tuner = AutoTuner(num_sources=1, repeats=1)
        assert tuner.best_stepper(grid_graph) == tuner.report_for(grid_graph).best

    def test_explicit_sources_respected(self, grid_graph):
        tuner = AutoTuner(num_sources=1, repeats=1)
        report = tuner.probe(grid_graph, sources=(5,))
        assert report.sources == (5,)

    def test_predict_scales_linearly(self, grid_graph):
        tuner = AutoTuner(num_sources=1, repeats=1)
        name = DEFAULT_CANDIDATES[0]
        one = tuner.predict_ms(grid_graph, name, 1)
        assert tuner.predict_ms(grid_graph, name, 10) == pytest.approx(10 * one)

    def test_unknown_candidate_rejected(self):
        with pytest.raises(ValueError):
            AutoTuner(candidates=("rho", "warp-drive"))

    def test_unknown_spec_candidate_rejected(self):
        with pytest.raises(ValueError):
            AutoTuner(candidates=("rho", "warp-drive(x=1)"))

    def test_probe_executes_specs_verbatim(self, grid_graph, monkeypatch):
        """A probe run gets exactly the spec's params — the same call a
        consumer resolving the winning pick makes later, so measured and
        served configurations cannot drift apart."""
        seen = []
        sharded = STEPPERS["sharded"]
        real_solve = sharded.solve

        def spying_solve(graph, source, **kw):
            seen.append(kw)
            return real_solve(graph, source, **kw)

        # shadow the bound method in the instance dict; undo deletes the key
        # (setattr would write the bound method back as an instance attribute)
        monkeypatch.setitem(vars(sharded), "solve", spying_solve)
        AutoTuner(
            candidates=("sharded(shards=2,transport=threads)",),
            num_sources=1, repeats=1,
        ).probe(grid_graph)
        assert seen
        assert all(kw == {"num_shards": 2, "transport": "threads"} for kw in seen)

    def test_pooled_probes_reuse_one_worker_pool(self, grid_graph, monkeypatch):
        """Every threaded probe run resolves to the same get_pool()-managed
        worker pool: no per-probe worker spawning."""
        from repro.parallel import pool as pool_mod

        handed_out = []
        real_get_pool = pool_mod.get_pool

        def counting_get_pool(num_threads):
            p = real_get_pool(num_threads)
            handed_out.append(p)
            return p

        monkeypatch.setattr("repro.shard.exchange.get_pool", counting_get_pool)
        tuner = AutoTuner(
            candidates=(
                "sharded(shards=2,transport=threads)",
                "sharded(shards=3,transport=threads)",
            ),
            num_sources=2, repeats=2,
        )
        tuner.probe(grid_graph)
        assert len(handed_out) == 8  # 2 candidates x 2 sources x 2 repeats
        assert len(set(map(id, handed_out))) == 1  # ... all the same pool

    def test_empty_candidates_rejected(self):
        with pytest.raises(ValueError):
            AutoTuner(candidates=())

    def test_module_level_best_stepper(self, grid_graph):
        pick = best_stepper(grid_graph, tuner=AutoTuner(num_sources=1, repeats=1))
        assert pick in DEFAULT_CANDIDATES

    def test_custom_candidate_subset(self, grid_graph):
        tuner = AutoTuner(candidates=("rho", "delta-star"), num_sources=1, repeats=1)
        assert tuner.best_stepper(grid_graph) in ("rho", "delta-star")

    def test_row_for_unknown_raises(self, grid_graph):
        tuner = AutoTuner(num_sources=1, repeats=1)
        with pytest.raises(KeyError):
            tuner.report_for(grid_graph).row_for("nope")

    def test_tuned_pick_correct_distances(self, random_weighted_graph):
        """Whatever the tuner picks must still be exact."""
        from repro.sssp import dijkstra
        from repro.stepping import solve_with

        tuner = AutoTuner(num_sources=1, repeats=1)
        pick = tuner.best_stepper(random_weighted_graph)
        r = solve_with(pick, random_weighted_graph, 0)
        assert np.array_equal(r.distances, dijkstra(random_weighted_graph, 0).distances)
