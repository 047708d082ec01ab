"""ChaosTransport: injection mechanics, determinism, bit-identity."""

import numpy as np
import pytest

from repro.faults import ChaosTransport, FaultInjected, FaultPlan
from repro.graphs.generators import watts_strogatz
from repro.obs import Recorder
from repro.parallel.pool import BatchError
from repro.shard.stepper import ShardedDeltaStepper
from repro.sssp.reference import dijkstra


@pytest.fixture(scope="module")
def graph():
    return watts_strogatz(200, 6, 0.1, seed=5)


class TestInjection:
    def test_injected_failure_is_fail_stop(self):
        plan = FaultPlan(seed=0, fail_rate=1.0, max_failures=10)
        tr = ChaosTransport(plan, inner="inline")
        ran = []
        with pytest.raises(BatchError) as ei:
            tr.run([lambda: ran.append(0), lambda: ran.append(1)])
        # fail-stop before the body: injected steps never ran
        assert len(ran) + len(ei.value.failures) == 2
        assert all(isinstance(e, FaultInjected) for _, e in ei.value.failures)

    def test_clean_plan_is_transparent(self):
        tr = ChaosTransport(FaultPlan(seed=0), inner="inline")
        assert tr.run([lambda: "a", lambda: "b"]) == ["a", "b"]

    def test_name_nests_inner(self):
        tr = ChaosTransport(FaultPlan(), inner="threads:2")
        assert tr.name == "chaos[threads[2]]"


class TestDeterminismAcrossInnerTransports:
    def test_same_schedule_inline_vs_threads(self, graph):
        """Serial draws: the injected schedule must not depend on how the
        inner transport interleaves its workers."""
        counts = {}
        for inner in ("inline", "threads:2"):
            plan = FaultPlan(seed=9, fail_rate=0.3, dup_rate=0.3,
                             reorder_rate=0.3, max_failures=16)
            rec = Recorder()
            ShardedDeltaStepper().solve(
                graph, 0, num_shards=4,
                transport=f_resilient(plan, inner),
                checkpoint_every=2, max_restores=32, recorder=rec,
            )
            counts[inner] = {
                k: v for k, v in rec.metrics.snapshot()["counters"].items()
                if k.startswith("faults.")
            }
        assert counts["inline"] == counts["threads:2"]
        assert counts["inline"]["faults.injected"] > 0


def f_resilient(plan, inner):
    from repro.faults import ResilientTransport, RetryPolicy

    return ResilientTransport(
        inner=ChaosTransport(plan, inner=inner),
        policy=RetryPolicy(max_attempts=4, base_delay_ms=0.0, jitter=0.0),
    )


class TestBitIdentity:
    @pytest.mark.parametrize("plan_kw", [
        {"fail_rate": 0.3, "max_failures": 16},
        {"dup_rate": 0.5, "reorder_rate": 0.5},
        {"fail_rate": 0.2, "dup_rate": 0.3, "reorder_rate": 0.3,
         "max_failures": 16},
    ])
    def test_identical_to_dijkstra_under_faults(self, graph, plan_kw):
        expected = dijkstra(graph, 0).distances
        plan = FaultPlan(seed=21, **plan_kw)
        result = ShardedDeltaStepper().solve(
            graph, 0, num_shards=4,
            transport=f_resilient(plan, "inline"),
            checkpoint_every=2, max_restores=32,
        )
        assert plan.injected > 0, "plan injected nothing; test is vacuous"
        np.testing.assert_array_equal(result.distances, expected)
