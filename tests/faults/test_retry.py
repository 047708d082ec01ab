"""RetryPolicy / ResilientTransport: partial re-runs, backoff, exhaustion."""

import random

import pytest

from repro.faults import ResilientTransport, RetryExhausted, RetryPolicy
from repro.obs import Recorder
from repro.shard.exchange import TransportFailure


class TestPolicy:
    def test_backoff_doubles_and_caps(self):
        policy = RetryPolicy(base_delay_ms=1.0, max_delay_ms=4.0, jitter=0.0)
        rng = random.Random(0)
        assert [policy.backoff_ms(k, rng) for k in (1, 2, 3, 4)] == [1.0, 2.0, 4.0, 4.0]

    def test_jitter_is_subtractive(self):
        policy = RetryPolicy(base_delay_ms=10.0, max_delay_ms=10.0, jitter=0.5)
        rng = random.Random(0)
        for k in range(1, 6):
            assert 5.0 <= policy.backoff_ms(k, rng) <= 10.0

    @pytest.mark.parametrize("kw", [
        {"max_attempts": 0}, {"base_delay_ms": -1.0}, {"jitter": 1.5},
        {"jitter": -0.1}, {"deadline_ms": 0.0},
    ])
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            RetryPolicy(**kw)


def _flaky(failures_left):
    state = {"left": failures_left, "calls": 0}

    def fn():
        state["calls"] += 1
        if state["left"] > 0:
            state["left"] -= 1
            raise RuntimeError("transient")
        return "ok"

    fn.state = state
    return fn


def _fast_transport(max_attempts=4, **kw):
    return ResilientTransport(
        inner="inline",
        policy=RetryPolicy(max_attempts=max_attempts, base_delay_ms=0.0,
                           jitter=0.0, **kw),
    )


class TestResilientTransport:
    def test_retries_only_failed_steps(self):
        flaky, solid = _flaky(2), _flaky(0)
        out = _fast_transport().run([flaky, solid])
        assert out == ["ok", "ok"]
        assert flaky.state["calls"] == 3
        assert solid.state["calls"] == 1  # completed sibling never re-ran

    def test_exhaustion_raises_retry_exhausted(self):
        always = _flaky(10**9)
        tr = _fast_transport(max_attempts=3)
        with pytest.raises(RetryExhausted) as ei:
            tr.run([always, _flaky(0)])
        assert ei.value.attempts == 3
        assert [i for i, _ in ei.value.failures] == [0]
        assert "shard step(s) [0]" in str(ei.value)
        assert always.state["calls"] == 3

    def test_retry_exhausted_is_transport_failure(self):
        assert issubclass(RetryExhausted, TransportFailure)

    def test_deadline_ends_recovery_without_sleeping(self):
        # the first backoff (~25-50 ms) would cross the 5 ms superstep
        # deadline, so the transport gives up before sleeping
        tr = ResilientTransport(
            inner="inline",
            policy=RetryPolicy(max_attempts=10, base_delay_ms=50.0,
                               deadline_ms=5.0),
        )
        with pytest.raises(RetryExhausted) as ei:
            tr.run([_flaky(10**9)])
        assert ei.value.deadline_hit
        assert "deadline" in str(ei.value)

    def test_counters(self):
        rec = Recorder()
        tr = _fast_transport()
        tr.bind_recorder(rec)
        tr.run([_flaky(2)])
        counters = rec.metrics.snapshot()["counters"]
        assert counters["retry.attempts"] == 2
        assert "retry.exhausted" not in counters
        with pytest.raises(RetryExhausted):
            tr.run([_flaky(10**9)])
        assert rec.metrics.snapshot()["counters"]["retry.exhausted"] == 1

    def test_stacks_over_chaos_in_code(self):
        # wrapper stacks are built in code (the documented contract)
        from repro.faults import ChaosTransport, FaultPlan

        tr = ResilientTransport(
            inner=ChaosTransport(FaultPlan(seed=1, fail_rate=0.5), inner="inline")
        )
        assert tr.name == "resilient[chaos[inline]]"
