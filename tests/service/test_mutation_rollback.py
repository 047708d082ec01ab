"""Regression: a repair failing mid-mutation must roll the service back.

The hot-repair loop runs *after* the epoch has advanced and may have
re-put some entries under the new epoch before dying.  The service must
restore the pre-mutation snapshot — graph arrays, Δ and cache — under an
epoch past the aborted one (the epoch never decreases), so every source
that answered from cache before the call still answers bit-identically
after the failure.
"""

import numpy as np
import pytest

import repro.service.server as server_mod
from repro.graphs.generators import watts_strogatz
from repro.service.server import QueryService


@pytest.fixture()
def graph():
    return watts_strogatz(100, 6, 0.1, seed=11)


@pytest.fixture()
def service(graph):
    return QueryService(graph)


def reweight_batch(graph):
    return [(0, int(graph.indices[graph.indptr[0]]), 5.0)]


def failing_repairs(monkeypatch, fail_after=1):
    """Patch repair_sssp to die after *fail_after* successful repairs —
    a genuine mid-flight failure, some entries already re-put.  The
    returned dict also records the graph's (aborted) epoch at the
    failure."""
    calls = {"n": 0}
    real = server_mod.repair_sssp

    def flaky(graph, *args, **kwargs):
        calls["n"] += 1
        if calls["n"] > fail_after:
            calls["aborted_epoch"] = graph.epoch
            raise RuntimeError("repair kernel died mid-flight")
        return real(graph, *args, **kwargs)

    monkeypatch.setattr(server_mod, "repair_sssp", flaky)
    return calls


class TestRollback:
    def test_graph_epoch_weights_delta_restored(self, service, graph, monkeypatch):
        r0, r1 = service.query(0), service.query(1)  # warm two cache entries
        weights_before = graph.weights.copy()
        indptr_before, indices_before = graph.indptr, graph.indices
        epoch_before, delta_before = graph.epoch, service.delta

        failing_repairs(monkeypatch, fail_after=1)
        with pytest.raises(RuntimeError, match="mid-flight"):
            service.mutate(reweights=reweight_batch(graph), strict=False)

        assert graph.epoch > epoch_before + 1  # past the aborted epoch, not rewound
        assert service.delta == delta_before
        np.testing.assert_array_equal(graph.weights, weights_before)
        # structure arrays are only ever replaced wholesale; a pure
        # reweight rollback must hand back the very same objects
        assert graph.indptr is indptr_before
        assert graph.indices is indices_before

    def test_epoch_moves_past_the_aborted_one(self, service, graph, monkeypatch):
        before = {s: service.query(s) for s in (0, 1)}
        weights_before, delta_before = graph.weights.copy(), service.delta
        calls = failing_repairs(monkeypatch, fail_after=1)
        with pytest.raises(RuntimeError, match="mid-flight"):
            service.mutate(reweights=reweight_batch(graph), strict=False)

        assert calls["aborted_epoch"] > 0
        assert graph.epoch > calls["aborted_epoch"]
        np.testing.assert_array_equal(graph.weights, weights_before)
        assert service.delta == delta_before
        for s, resp in before.items():
            again = service.query(s)
            assert again.from_cache
            np.testing.assert_array_equal(again.distances, resp.distances)

    def test_service_answers_from_pre_mutation_snapshot(
        self, service, graph, monkeypatch
    ):
        before = {s: service.query(s) for s in (0, 1, 2)}
        failing_repairs(monkeypatch, fail_after=1)
        with pytest.raises(RuntimeError):
            service.mutate(reweights=reweight_batch(graph), strict=False)

        for s, resp in before.items():
            again = service.query(s)
            assert again.from_cache, f"source {s} lost its cache entry"
            np.testing.assert_array_equal(again.distances, resp.distances)

    def test_no_aborted_epoch_entries_survive(self, service, graph, monkeypatch):
        # fail_after=1: the first harvested entry IS re-put under the
        # aborted epoch before the second repair dies — rollback must
        # evict it, not let it shadow the snapshot
        service.query(0)
        service.query(1)
        failing_repairs(monkeypatch, fail_after=1)
        with pytest.raises(RuntimeError):
            service.mutate(reweights=reweight_batch(graph), strict=False)
        stats = service.stats()
        assert stats.cache.size == 2
        assert stats.mutations_applied == 0

    def test_service_recovers_for_later_mutations(self, service, graph, monkeypatch):
        service.query(0)
        calls = failing_repairs(monkeypatch, fail_after=0)
        with pytest.raises(RuntimeError):
            service.mutate(reweights=reweight_batch(graph), strict=False)
        assert calls["n"] == 1
        # with the patch lifted the same batch applies cleanly
        monkeypatch.undo()
        report = service.mutate(reweights=reweight_batch(graph), strict=False)
        assert report.epoch == graph.epoch
        assert report.repaired_entries == 1
        # and the repaired answer matches a cold re-solve
        repaired = service.query(0)
        cold = QueryService(graph).query(0)
        np.testing.assert_array_equal(repaired.distances, cold.distances)
