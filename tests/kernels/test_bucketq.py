"""BucketQueue: lazy bucket index semantics (ordering, staleness, hints)."""

import numpy as np
import pytest

from repro.kernels import BucketQueue


#: the NumPy kernels, then ``auto`` — the compiled loop when it loaded
#: (``argsort`` is then the oracle its counters are checked against)
KERNELS = ("argsort", "scatter", "auto")


def _arr(*xs):
    return np.asarray(xs, dtype=np.int64)


def _counters(r):
    return (r.buckets_processed, r.phases, r.relaxations, r.updates)


def _solves_match_dijkstra(g, delta):
    """The fused solve from 0 under every kernel: Dijkstra's distances and
    the ``argsort`` run's four counters."""
    from repro.sssp.fused import fused_delta_stepping
    from repro.sssp.reference import dijkstra

    oracle = dijkstra(g, 0).distances
    runs = {k: fused_delta_stepping(g, 0, delta, kernel=k) for k in KERNELS}
    for kernel, r in runs.items():
        assert np.array_equal(r.distances, oracle), (delta, kernel)
        assert _counters(r) == _counters(runs["argsort"]), (delta, kernel)


def _repair_matches_dijkstra(g, delta, reweights):
    """The shared bucket loop's other caller, against Dijkstra: a repair
    from source 0 after the *reweights* batch, and the seeded state it
    hands :func:`run_buckets` replayed under every kernel, with the
    repair's counters.  Returns the number of seeds (0: nothing to
    re-relax)."""
    from repro.dynamic import apply_edge_updates, incremental, repair_sssp
    from repro.sssp.fused import run_buckets, split_csr_light_heavy
    from repro.sssp.reference import dijkstra

    g = g.copy()
    d0 = dijkstra(g, 0).distances
    applied = apply_edge_updates(g, reweights=reweights)
    oracle = dijkstra(g, 0).distances
    seeded = []

    def capture(split, t, seeds, width):
        seeded.append((t.copy(), seeds.copy()))
        return run_buckets(split, t, seeds, width)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(incremental, "run_buckets", capture)
        rep = repair_sssp(g, 0, d0, applied, delta=delta)
    assert np.array_equal(rep.distances, oracle), (delta, reweights)
    work = (rep.buckets, rep.phases, rep.relaxations, rep.updates)
    split = split_csr_light_heavy(g, delta)
    for t0, seeds in seeded:
        for kernel in KERNELS:
            t = t0.copy()
            c = run_buckets(split, t, seeds, delta, kernel)
            assert np.array_equal(t, oracle), (delta, reweights, kernel)
            assert (c["steps"], c["phases"], c["relaxations"], c["updates"]) == work, kernel
    return sum(len(seeds) for _, seeds in seeded)


class TestBasics:
    def test_rejects_nonpositive_delta(self):
        with pytest.raises(ValueError):
            BucketQueue(0.0)
        with pytest.raises(ValueError):
            BucketQueue(-1.0)

    def test_empty_pop(self):
        bq = BucketQueue(1.0)
        assert not bq
        i, frontier = bq.pop_bucket(np.zeros(4))
        assert i is None and len(frontier) == 0

    def test_pops_in_bucket_order(self):
        dist = np.array([0.0, 3.5, 1.2, 7.9])
        bq = BucketQueue(1.0)
        bq.push(_arr(1, 3), dist[[1, 3]])
        bq.push(_arr(0, 2), dist[[0, 2]])
        order = []
        while bq:
            i, frontier = bq.pop_bucket(dist)
            order.append((i, frontier.tolist()))
        assert order == [(0, [0]), (1, [2]), (3, [1]), (7, [3])]

    def test_frontier_is_deduped_and_ascending(self):
        dist = np.array([0.4, 0.2, 0.9])
        bq = BucketQueue(1.0)
        bq.push(_arr(2, 0), dist[[2, 0]])
        bq.push(_arr(1, 2), dist[[1, 2]])
        i, frontier = bq.pop_bucket(dist)
        assert i == 0
        assert frontier.tolist() == [0, 1, 2]


class TestLazyValidation:
    def test_stale_entries_dropped(self):
        # vertex 1 filed under bucket 4, then improves into bucket 0:
        # the old hint must evaporate, the new one must serve
        dist = np.array([0.0, 4.5])
        bq = BucketQueue(1.0)
        bq.push(_arr(1), dist[[1]])
        dist[1] = 0.25
        bq.push(_arr(1), dist[[1]])
        i, frontier = bq.pop_bucket(dist)
        assert i == 0 and frontier.tolist() == [1]
        i, frontier = bq.pop_bucket(dist)
        assert i is None and len(frontier) == 0

    def test_push_into_hint_validated_like_any_entry(self):
        dist = np.array([1.5, 1.7])
        bq = BucketQueue(1.0)
        bq.push_into(1, _arr(0, 1))
        dist[0] = 0.1  # improved away after the hint was filed
        bq.push(_arr(0), dist[[0]])
        i, frontier = bq.pop_bucket(dist)
        assert (i, frontier.tolist()) == (0, [0])
        i, frontier = bq.pop_bucket(dist)
        assert (i, frontier.tolist()) == (1, [1])

    def test_push_into_empty_is_noop(self):
        bq = BucketQueue(1.0)
        bq.push_into(3, np.empty(0, dtype=np.int64))
        assert not bq


class TestUlpBoundaryRegression:
    """push/pop/stepper windows must agree under float rounding — a 1-ulp
    disagreement between ``idx*Δ + Δ`` and ``(idx+1)*Δ`` used to drop a
    live vertex and return inf for a reachable one."""

    def test_confirmed_drop_case(self):
        from repro.graphs.graph import Graph

        g = Graph.from_edges([0, 1], [1, 2], [15.003965537540262, 1.0], n=3)
        _solves_match_dijkstra(g, 2.500660922923377)

    def test_queue_never_loses_vertices_at_fuzzy_boundaries(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            delta = float(rng.uniform(0.3, 5.0))
            k = rng.integers(1, 40, size=16)
            # distances engineered onto/next to bucket boundaries, both
            # the k*Δ and (k-1)*Δ + Δ spellings
            d = np.where(rng.random(16) < 0.5, k * delta, (k - 1) * delta + delta)
            d = np.abs(d)
            bq = BucketQueue(delta)
            bq.push(np.arange(16, dtype=np.int64), d)
            seen = set()
            while bq:
                i, frontier = bq.pop_bucket(d)
                lo, hi = i * delta, (i + 1) * delta
                assert np.all((d[frontier] >= lo) & (d[frontier] < hi))
                seen.update(frontier.tolist())
            assert seen == set(range(16)), (delta, d)

    def test_late_entries_refiled_not_dropped(self):
        # an analytic hint one bucket too low must be refiled, not lost
        dist = np.array([2.0])
        bq = BucketQueue(1.0)
        bq.push_into(1, _arr(0))  # true bucket is 2
        i, frontier = bq.pop_bucket(dist)
        assert (i, frontier.tolist()) == (2, [0])

    def test_huge_distance_tiny_delta_terminates(self):
        """Livelock regression: when d/Δ exceeds 2^53, adjacent bucket
        products collapse (b*Δ == (b+1)*Δ) and floor_divide errs by more
        than ±1 — push must still walk to a valid bucket and pop must
        make progress, like the seed's window scan did."""
        from repro.graphs.graph import Graph

        g = Graph.from_edges([0, 1], [1, 2], [1.455986969276348e17, 1.0], n=4)
        _solves_match_dijkstra(g, 6.405920704482398)
        _repair_matches_dijkstra(g, 6.405920704482398, [(1, 2, 64.0)])

    def test_queue_level_ulp_starved_push_pop(self):
        d = np.array([1.455986969276348e17])
        bq = BucketQueue(6.405920704482398)
        bq.push(_arr(0), d)
        i, frontier = bq.pop_bucket(d)
        assert frontier.tolist() == [0]
        lo, hi = i * bq.delta, (i + 1) * bq.delta
        assert lo <= d[0] < hi

    def test_phantom_empty_buckets_do_not_crash_bench(self):
        """The seed's division/product boundary disagreement makes it walk
        (and count) phantom empty buckets; the queue never schedules one.
        Distances and phase counters must still agree, and the bench must
        report rather than crash on such a (graph, delta) pair."""
        from repro.bench.kernel_bench import kernel_bench_series, seed_fused_delta_stepping
        from repro.bench.workloads import Workload
        from repro.graphs.graph import Graph
        from repro.sssp.fused import fused_delta_stepping

        g = Graph.from_edges([0], [1], [13.7], n=2)
        seed = seed_fused_delta_stepping(g, 0, 1e-6)
        new = fused_delta_stepping(g, 0, 1e-6)
        assert np.array_equal(seed.distances, new.distances)
        assert (seed.phases, seed.relaxations, seed.updates) == (
            new.phases, new.relaxations, new.updates,
        )
        assert new.buckets_processed <= seed.buckets_processed  # no phantoms
        _solves_match_dijkstra(g, 1e-6)
        rows = kernel_bench_series([Workload("boundary", g, 0, 1e-6)], repeats=1)
        assert all(r["verified"] == "ok" for r in rows)

    def test_fused_fuzz_vs_dijkstra_random_deltas(self):
        from repro.graphs.graph import Graph

        rng = np.random.default_rng(5)
        pick_rng = np.random.default_rng(6)  # its own stream: rng draws the same 25 graphs
        seeds = []
        for _ in range(25):
            m = 150
            g = Graph.from_edges(
                rng.integers(0, 40, size=m), rng.integers(0, 40, size=m),
                rng.uniform(0.0, 16.0, size=m), n=40,
            )
            delta = float(rng.uniform(0.05, 7.0))
            _solves_match_dijkstra(g, delta)
            tails = g.row_sources()
            pick = pick_rng.choice(g.num_edges, size=3, replace=False)
            reweights = (tails[pick], g.indices[pick], pick_rng.uniform(0.0, 16.0, size=3))
            seeds.append(_repair_matches_dijkstra(g, delta, reweights))
        assert max(seeds) > 1  # some replays run the loop from several seeds


class TestBoundaryPlacement:
    def test_exact_bucket_boundaries(self):
        # distances exactly on iΔ must land in bucket i (window [iΔ,(i+1)Δ))
        delta = 0.1  # not exactly representable: the misround-prone case
        dist = np.array([k * delta for k in range(30)])
        bq = BucketQueue(delta)
        bq.push(np.arange(30, dtype=np.int64), dist)
        seen = []
        while bq:
            i, frontier = bq.pop_bucket(dist)
            seen.extend(frontier.tolist())
            lo = i * delta
            assert np.all(dist[frontier] >= lo)
            assert np.all(dist[frontier] < lo + delta)
        assert sorted(seen) == list(range(30))  # nothing lost to misrounding

    def test_single_bucket_fast_path_matches_general(self):
        dist = np.array([2.1, 2.9, 2.5])
        a, b = BucketQueue(1.0), BucketQueue(1.0)
        a.push(_arr(0, 1, 2), dist)  # all one bucket: fast path
        b.push(_arr(0), dist[[0]])
        b.push(_arr(1), dist[[1]])
        b.push(_arr(2), dist[[2]])
        ia, fa = a.pop_bucket(dist)
        ib, fb = b.pop_bucket(dist)
        assert ia == ib == 2
        assert fa.tolist() == fb.tolist() == [0, 1, 2]
