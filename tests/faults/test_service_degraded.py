"""QueryService degraded mode: breaker wiring, shedding, telemetry."""

import numpy as np
import pytest

from repro.faults import CircuitBreaker, CircuitOpenError, MutationShedError
from repro.graphs.generators import watts_strogatz
from repro.obs import Recorder
from repro.service.batch import batch_delta_stepping
from repro.service.landmarks import LandmarkIndex
from repro.service.server import QueryService
from repro.sssp.reference import dijkstra


@pytest.fixture(scope="module")
def graph():
    return watts_strogatz(120, 6, 0.1, seed=8)


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def scripted_solver(fail_first):
    calls = {"n": 0}

    def solver(graph, batch, **kwargs):
        calls["n"] += 1
        if calls["n"] <= fail_first:
            raise RuntimeError("scripted outage")
        return batch_delta_stepping(graph, batch, **kwargs)

    solver.calls = calls
    return solver


def make_service(graph, fail_first=3, landmarks=True, recorder=None, clock=None):
    clock = clock or FakeClock()
    breaker = CircuitBreaker(failure_threshold=2, reset_after_s=10.0, clock=clock)
    service = QueryService(
        graph,
        landmarks=LandmarkIndex.build(graph, num_landmarks=3) if landmarks else None,
        breaker=breaker,
        solver=scripted_solver(fail_first),
        recorder=recorder,
    )
    return service, breaker, clock


class TestDegradedAnswers:
    def test_solver_failure_degrades_to_landmark_bounds(self, graph):
        service, breaker, _ = make_service(graph)
        resp = service.query(0)
        assert resp.degraded and not resp.exact
        assert resp.distances is not None  # landmark upper bounds, not a crash
        assert service.stats().degraded_answers == 1

    def test_consecutive_failures_trip_and_open_rejects(self, graph):
        service, breaker, _ = make_service(graph, fail_first=2)
        service.query(0)
        service.query(1)
        assert breaker.state == "open"
        # while open: no solver call at all, straight to landmark answers
        before = service._solver.calls["n"]
        resp = service.query(2)
        assert resp.degraded
        assert service._solver.calls["n"] == before

    def test_cached_answers_survive_open_breaker(self, graph):
        service, breaker, clock = make_service(graph, fail_first=0)
        exact = service.query(5)
        assert exact.exact
        for _ in range(3):
            breaker.record_failure()
        assert breaker.state == "open"
        again = service.query(5)
        assert again.exact and again.from_cache and not again.degraded
        np.testing.assert_array_equal(again.distances, exact.distances)

    def test_no_landmarks_propagates_failure(self, graph):
        service, _, _ = make_service(graph, landmarks=False)
        with pytest.raises(RuntimeError, match="scripted outage"):
            service.query(0)

    def test_no_landmarks_open_breaker_raises_circuit_open(self, graph):
        service, breaker, _ = make_service(graph, fail_first=0, landmarks=False)
        for _ in range(3):
            breaker.record_failure()
        with pytest.raises(CircuitOpenError):
            service.query(7)

    def test_recovery_is_bit_identical(self, graph):
        service, breaker, clock = make_service(graph, fail_first=2)
        service.query(0)
        service.query(1)
        assert breaker.state == "open"
        clock.t = 11.0  # half-open; scripted failures are spent
        resp = service.query(3)
        assert resp.exact and not resp.degraded
        assert breaker.state == "closed"
        np.testing.assert_array_equal(
            resp.distances, dijkstra(graph, 3).distances
        )


class TestMutationShedding:
    def test_open_breaker_sheds_mutations(self, graph):
        service, breaker, _ = make_service(graph, fail_first=0)
        for _ in range(3):
            breaker.record_failure()
        epoch = graph.epoch
        with pytest.raises(MutationShedError):
            service.mutate(reweights=[(0, int(graph.indices[0]), 2.0)], strict=False)
        assert graph.epoch == epoch  # nothing was touched
        assert service.stats().mutations_shed == 1

    def test_half_open_admits_mutations(self, graph):
        service, breaker, clock = make_service(graph, fail_first=0)
        for _ in range(3):
            breaker.record_failure()
        clock.t = 11.0
        report = service.mutate(
            reweights=[(0, int(graph.indices[0]), 2.0)], strict=False
        )
        assert report.epoch == graph.epoch


class TestDeadlinesAndTelemetry:
    def test_gauges_and_counters(self, graph):
        rec = Recorder()
        service, breaker, _ = make_service(graph, fail_first=2, recorder=rec)
        service.query(0)
        service.query(1)
        snap = rec.metrics.snapshot()
        assert snap["gauges"]["service.degraded"] == 1.0
        assert snap["gauges"]["service.breaker_state"] == 2.0  # open
        assert snap["counters"]["service.solver_failures"] == 2
        assert snap["counters"]["service.degraded_answers"] == 2
        service.query(2)  # rejected by the open breaker
        counters = rec.metrics.snapshot()["counters"]
        assert counters["service.breaker_rejections"] >= 1

    def test_stats_surface_breaker_state(self, graph):
        service, breaker, _ = make_service(graph, fail_first=2)
        service.query(0)
        service.query(1)
        stats = service.stats()
        assert stats.breaker_state == "open"
        assert stats.breaker_trips == 1
        # and a breaker-less service reports the neutral sentinel
        assert QueryService(graph).stats().breaker_state == "none"
