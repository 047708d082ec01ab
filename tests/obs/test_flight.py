"""The structured slow-query log."""

import json

import pytest

from repro.obs import SlowQueryLog


class TestSlowQueryLog:
    def test_validation(self):
        with pytest.raises(ValueError):
            SlowQueryLog(-1.0)
        with pytest.raises(ValueError):
            SlowQueryLog(10.0, capacity=0)

    def test_record_stamps_and_sanitizes(self):
        import numpy as np

        log = SlowQueryLog(5.0)
        stored = log.record({"request_id": "q-1", "latency_ms": np.float64(7.5)})
        assert stored["threshold_ms"] == 5.0
        assert "ts" in stored
        assert isinstance(stored["latency_ms"], float)
        json.dumps(stored)

    def test_rotation_keeps_newest(self):
        log = SlowQueryLog(1.0, capacity=3)
        for i in range(7):
            log.record({"request_id": f"q-{i}"})
        assert len(log) == 3 and log.total == 7
        assert [e["request_id"] for e in log.entries()] == ["q-4", "q-5", "q-6"]

    def test_write_jsonl_round_trip(self, tmp_path):
        from repro.obs import load_slow_queries

        log = SlowQueryLog(1.0)
        log.record({"request_id": "q-0", "latency_ms": 3.0})
        log.record({"request_id": "q-1", "latency_ms": 9.0})
        path = log.write(tmp_path / "slow.jsonl")
        entries = load_slow_queries(path)
        assert [e["request_id"] for e in entries] == ["q-0", "q-1"]
