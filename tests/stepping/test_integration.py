"""Stepping × service × dynamic integration: the portfolio behind every door."""

import numpy as np
import pytest

from repro.bench.mutate_bench import build_update_batch
from repro.dynamic import repair_sssp
from repro.graphs import datasets, generators
from repro.service import Query, QueryPlanner, QueryService, batch_delta_stepping
from repro.sssp import dijkstra
from repro.sssp.fused import fused_delta_stepping
from repro.stepping import AutoTuner


@pytest.fixture(scope="module")
def ws_graph():
    return datasets.load("ci-ws")


class _StubTuner:
    """A tuner stand-in: picks ``picks[epoch]`` (the last one for later
    epochs) and records the epoch of every ask."""

    def __init__(self, *picks):
        self.picks, self.asked = picks, []

    def best_stepper(self, graph):
        self.asked.append(graph.epoch)
        return self.picks[min(graph.epoch, len(self.picks) - 1)]


def _recording_solver(methods):
    """The default batch solver, appending each batch's method to *methods*."""

    def solve(graph, sources, **kwargs):
        methods.append(kwargs["method"])
        return batch_delta_stepping(graph, sources, **kwargs)

    return solve


def _probe_epochs(tuner):
    """Record the graph epoch of every probe *tuner* runs."""
    epochs = []
    probe = tuner.probe

    def counted(graph, sources=None):
        epochs.append(graph.epoch)
        return probe(graph, sources)

    tuner.probe = counted
    return epochs


class TestBatchDispatch:
    @pytest.mark.parametrize("method", ["rho", "radius", "delta-star", "bellman-ford",
                                        "graphblas", "meyer-sanders", "capi", "parallel"])
    def test_batch_via_stepper_matches_dijkstra(self, ws_graph, method):
        sources = [0, 7, 42]
        res = batch_delta_stepping(ws_graph, sources, method=method)
        assert res.method == f"batch-loop:{method}"
        for k, s in enumerate(sources):
            assert np.array_equal(res.distances[k], dijkstra(ws_graph, s).distances)

    def test_unknown_method_enumerates_both_registries(self, ws_graph):
        with pytest.raises(ValueError) as excinfo:
            batch_delta_stepping(ws_graph, [0], method="warp-drive")
        message = str(excinfo.value)
        assert "delta" in message and "rho" in message and "radius" in message

    def test_fused_spelling_is_retired(self, ws_graph):
        with pytest.raises(ValueError, match="unknown batch method 'fused'"):
            batch_delta_stepping(ws_graph, [0], method="fused")

    def test_stepper_loop_counters_aggregate(self, ws_graph):
        res = batch_delta_stepping(ws_graph, [0, 7], method="rho")
        single = sum(
            __import__("repro.stepping", fromlist=["solve_with"]).solve_with(
                "rho", ws_graph, s
            ).updates
            for s in (0, 7)
        )
        assert res.updates == single


class TestPlannerRouting:
    def test_pinned_stepper_stamped_on_plan(self):
        planner = QueryPlanner(stepper="rho")
        plan = planner.plan([Query(source=0)])
        assert plan.stepper == "rho"

    def test_tuned_stepper_used_when_unpinned(self, ws_graph):
        methods = []
        svc = QueryService(
            ws_graph, tuner=_StubTuner("radius"), solver=_recording_solver(methods)
        )
        resp = svc.query(0)
        assert methods == ["radius"]
        assert np.array_equal(resp.distances, dijkstra(ws_graph, 0).distances)

    def test_pinned_beats_tuned(self, ws_graph):
        methods, tuner = [], _StubTuner("radius")
        svc = QueryService(
            ws_graph, stepper="rho", tuner=tuner, solver=_recording_solver(methods)
        )
        svc.query(0)
        assert methods == ["rho"]
        assert tuner.asked == []  # a pinned plan never consults the tuner

    def test_mutation_clears_tuned_keeps_pinned(self):
        # the tuned pick belongs to the epoch it was made for; a pin stays
        for pin, expected in (("rho", ["rho", "rho"]), (None, ["radius", "delta-star"])):
            g = datasets.load("ci-ws").copy()
            methods = []
            svc = QueryService(
                g, stepper=pin, tuner=_StubTuner("radius", "delta-star"),
                solver=_recording_solver(methods),
            )
            svc.query(0)
            svc.mutate(reweights=[(0, int(g.indices[0]), 0.5)])
            resp = svc.query(9)
            assert methods == expected, pin
            assert np.array_equal(resp.distances, dijkstra(g, 9).distances)


class TestServiceStepping:
    def test_pinned_stepper_answers_exactly(self, ws_graph):
        svc = QueryService(ws_graph, stepper="rho")
        resp = svc.query(0)
        assert np.array_equal(resp.distances, dijkstra(ws_graph, 0).distances)

    def test_autotune_service_answers_exactly(self, ws_graph):
        tuner, methods = AutoTuner(num_sources=1, repeats=1), []
        svc = QueryService(ws_graph, tuner=tuner, solver=_recording_solver(methods))
        resp = svc.query(3)
        assert np.array_equal(resp.distances, dijkstra(ws_graph, 3).distances)
        # the exact solve ran the tuned pick
        assert methods == [tuner.best_stepper(ws_graph)]
        assert methods[0] in AutoTuner().candidates

    def test_autotune_retunes_after_mutation(self):
        g = datasets.load("ci-ws").copy()
        tuner = AutoTuner(num_sources=1, repeats=1)
        probed = _probe_epochs(tuner)
        svc = QueryService(g, tuner=tuner)
        svc.query(0)
        assert probed == [0]
        svc.mutate(reweights=[(0, int(g.indices[0]), 0.5)])
        # source 0 was repaired in place: a cache-only drain must answer
        # exactly WITHOUT paying a re-probe
        resp = svc.query(0)
        assert resp.from_cache
        assert probed == [0]
        assert np.array_equal(resp.distances, dijkstra(g, 0).distances)
        # the next cold source needs an exact solve -> the new epoch probes
        resp = svc.query(9)
        assert probed == [0, 1]
        assert np.array_equal(resp.distances, dijkstra(g, 9).distances)

    def test_autotune_reprobes_after_invalidate(self):
        g = generators.grid_2d(6, 6)
        svc = QueryService(g, autotune=True)
        probed = _probe_epochs(svc.tuner)
        svc.query(0)
        g.weights *= 3.0  # a raw edit, announced below
        svc.invalidate()
        resp = svc.query(1)
        assert probed == [0, 1]
        assert np.array_equal(resp.distances, dijkstra(g, 1).distances)

    def test_autotune_probe_skipped_on_cached_drain(self, ws_graph):
        tuner = AutoTuner(num_sources=1, repeats=1)
        svc = QueryService(ws_graph, tuner=tuner)
        svc.query(0)  # cold: probes + solves
        probed = dict(tuner._reports)
        resp = svc.query(0)  # warm: cache hit, no batches
        assert resp.from_cache
        assert dict(tuner._reports) == probed  # no new probe happened


class TestSteppedRepair:
    @pytest.mark.parametrize("stepper", ["rho", "radius", "delta-star", "delta"])
    def test_repair_on_stepper_bit_identical(self, stepper):
        """A service pinned to any stepper repairs the row that stepper
        solved with the ``delta`` loop, bit-identical to a recompute,
        through a general (delete + insert + reweight) batch."""
        g = datasets.load("ci-ws", weights="uniform", seed=3).copy()
        svc = QueryService(g, stepper=stepper)
        d0 = svc.query(0).distances
        rng = np.random.default_rng(11)
        inserts, deletes, reweights = build_update_batch(g, 0.02, rng)
        report = svc.mutate(inserts=inserts, deletes=deletes, reweights=reweights)
        assert report.repaired_entries == 1
        resp = svc.query(0)
        assert resp.from_cache
        assert np.array_equal(resp.distances, fused_delta_stepping(g, 0, 1.0).distances)
        # the batch lost shortest paths, so the repair had a hole to refill
        rep = repair_sssp(g, 0, d0, report.applied, delta=svc.delta)
        assert rep.mode == "general" and rep.affected > 0
        assert np.array_equal(rep.distances, resp.distances)


class TestStepBench:
    def test_smoke_series_and_render(self):
        from repro.bench.step_bench import (
            render_stepping_portfolio,
            stepping_portfolio_series,
        )
        from repro.bench.workloads import suite_workloads

        rows = stepping_portfolio_series(
            suite_workloads("ci")[:1], steppers=("rho", "delta-star"), repeats=1
        )
        assert len(rows) == 2
        assert sum(1 for r in rows if r["picked"]) == 1
        panel = render_stepping_portfolio(rows)
        assert "Auto-tuner pick vs best measured" in panel

    def test_step_experiment_registered(self):
        from repro.bench.registry import EXPERIMENTS

        assert "STEP" in EXPERIMENTS
        assert "auto-tuner" in EXPERIMENTS["STEP"].claim.lower()
