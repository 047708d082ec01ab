"""Transport spellings: ``inline`` and ``threads[:N]`` strings, or a
:class:`Transport` instance; everything else fails naming the registry."""

import numpy as np
import pytest

from repro.parallel.pool import WorkerPool
from repro.shard.exchange import (
    TRANSPORTS,
    InProcessTransport,
    PoolTransport,
    make_transport,
)
from repro.sssp import dijkstra
from repro.stepping import solve_with


class TestParsing:
    def test_bare_name(self):
        assert isinstance(make_transport("inline"), InProcessTransport)
        tr = make_transport("threads")
        assert isinstance(tr, PoolTransport)
        assert tr.pool.num_threads == 4

    def test_colon_arg(self):
        tr = make_transport("threads:8")
        assert isinstance(tr, PoolTransport)
        assert tr.pool.num_threads == 8

    def test_whitespace_is_tolerated(self):
        assert isinstance(make_transport(" inline "), InProcessTransport)
        assert make_transport("  threads : 8 ").pool.num_threads == 8


class TestNumericValidation:
    @pytest.mark.parametrize("spec", ["threads:0", "threads:-2"])
    def test_nonpositive_thread_counts_rejected(self, spec):
        with pytest.raises(ValueError) as ei:
            make_transport(spec)
        # the error must name the offending spec, not just the number
        assert spec in str(ei.value)
        assert ">= 1" in str(ei.value)

    def test_non_numeric_thread_count_rejected(self):
        with pytest.raises(ValueError) as ei:
            make_transport("threads:lots")
        assert "threads:lots" in str(ei.value)
        assert "integer" in str(ei.value)


class TestRegistry:
    def test_registry_is_inline_and_threads(self):
        assert sorted(TRANSPORTS) == ["inline", "threads"]

    def test_unknown_name_lists_known(self):
        with pytest.raises(ValueError, match="known: .*inline.*threads"):
            make_transport("carrier-pigeon")

    @pytest.mark.parametrize(
        "spec",
        ["chaos(inner=threads:4,seed=7)", "resilient(attempts=2)", "threads(n=2)"],
    )
    def test_parameterized_spellings_rejected(self, spec):
        # wrappers are built in code; the string grammar has no key=value form
        with pytest.raises(ValueError, match="known: inline, threads"):
            make_transport(spec)

    def test_inline_rejects_arguments(self):
        with pytest.raises(ValueError, match="takes no argument"):
            make_transport("inline:4")

    def test_instance_passes_through(self):
        tr = InProcessTransport()
        assert make_transport(tr) is tr


def test_embedder_pool_runs_sharded_steps(random_weighted_graph):
    """An embedder with its own pool hands it over as a transport."""
    g = random_weighted_graph
    pool = WorkerPool(2)
    try:
        res = solve_with("sharded(shards=3)", g, 0, transport=PoolTransport(pool))
    finally:
        pool.shutdown()
    assert res.extra["transport"] == "threads[2]"
    assert np.array_equal(res.distances, dijkstra(g, 0).distances)
