"""The compiled Δ-bucket loop (``repro.kernels.compiled``) against the NumPy one.

Parity on the adversarial inputs lives with the inputs, in
``test_bucketq.py`` (every loop there runs ``auto`` beside the NumPy
kernels) and ``test_stepper_integration.py`` (``auto`` against the
unfused NumPy loop).  This file covers what is specific to the compiled
path: that it runs, its boundary checks, its overflow guard and its
build fallback.
"""

import numpy as np
import pytest

from repro.graphs.graph import Graph
from repro.kernels import compiled
from repro.sssp.fused import fused_delta_stepping, run_buckets, split_csr_light_heavy
from repro.sssp.reference import dijkstra
from repro.sssp.result import INF

needs_compiled = pytest.mark.skipif(
    not compiled.available(), reason="the compiled loop did not build here"
)


def _graph():
    rng = np.random.default_rng(3)
    m = 300
    w = rng.uniform(0.0, 4.0, size=m)
    w[:30] = 0.0
    return Graph.from_edges(rng.integers(0, 60, m), rng.integers(0, 60, m), w, n=60)


def _loop(g, t, kernel, delta=0.7):
    """run_buckets from vertex 0 on a caller-built *t*."""
    t[0] = 0.0
    return run_buckets(split_csr_light_heavy(g, delta), t, np.array([0]), delta, kernel)


def _numpy_waves_unreachable(monkeypatch):
    """Make the NumPy loop's gather and min kernel raise when called."""
    from repro.sssp import fused

    def unreachable(*args, **kwargs):
        raise AssertionError("the NumPy loop ran")

    monkeypatch.setattr(fused, "gather_candidates", unreachable)
    monkeypatch.setattr(fused, "min_by_target", unreachable)


@needs_compiled
def test_compiled_loop_runs_for_auto(monkeypatch):
    """With the library loaded, ``auto`` never enters the NumPy waves:
    the single-source solve, a batch and repair all answer with the
    NumPy gather and min kernel unreachable."""
    from repro.dynamic import apply_edge_updates, repair_sssp
    from repro.service.batch import batch_delta_stepping

    g = _graph()
    d0 = dijkstra(g, 0).distances
    d5 = dijkstra(g, 5).distances
    _numpy_waves_unreachable(monkeypatch)
    assert np.array_equal(fused_delta_stepping(g, 0, 0.7).distances, d0)
    rows = batch_delta_stepping(g, [0, 5], 0.7).distances
    assert np.array_equal(rows[1], d5)
    tails = g.row_sources()
    applied = apply_edge_updates(g, reweights=[(tails[0], g.indices[0], 9.0)])
    rep = repair_sssp(g, 0, d0, applied, delta=0.7)
    assert np.array_equal(rep.distances, dijkstra(g, 0).distances)
    with pytest.raises(AssertionError, match="the NumPy loop ran"):
        fused_delta_stepping(g, 0, 0.7, kernel="scatter")


@needs_compiled
def test_recorded_service_batches_stay_compiled(monkeypatch):
    """A recorder bound to a :class:`~repro.service.QueryService` does not
    reach its ``delta`` solves, so a recorded drain still runs the
    compiled loop: it answers with the NumPy waves unreachable."""
    from repro.obs import Recorder
    from repro.service import Query, QueryService

    g = _graph()
    want = {s: dijkstra(g, s).distances for s in (0, 5, 9)}
    _numpy_waves_unreachable(monkeypatch)
    rec = Recorder()
    svc = QueryService(g, delta=0.7, recorder=rec)
    for s in want:
        svc.submit(Query(source=s))
    for resp in svc.drain():
        assert np.array_equal(resp.distances, want[resp.query.source])
    (span,) = rec.trace.spans("service:batch-solve")
    assert span["args"]["batch"] == 3 and span["args"]["relaxations"] > 0


@needs_compiled
def test_recorded_service_repair_stays_compiled(monkeypatch):
    """A recorded :class:`~repro.service.QueryService` answers, mutates
    and answers again from its repaired rows with the NumPy waves
    unreachable: the recorder gets the ``repair`` spans but is not
    handed to the repair waves, which run the compiled loop."""
    from repro.obs import Recorder
    from repro.service import QueryService

    g = _graph()
    sources = (0, 5, 9)
    _numpy_waves_unreachable(monkeypatch)
    rec = Recorder()
    svc = QueryService(g, delta=0.7, recorder=rec)
    for s in sources:
        assert np.array_equal(svc.query(s).distances, dijkstra(g, s).distances)
    tails = g.row_sources()
    missing = next(v for v in range(1, g.num_vertices) if g.edge_weight(0, v) is None)
    report = svc.mutate(
        inserts=[(0, missing, 0.05)],
        reweights=[(tails[k], g.indices[k], 9.0) for k in (0, 40, 80)],
    )
    assert report.repaired_entries == len(sources)
    spans = rec.trace.spans("repair")
    assert len(spans) == len(sources)
    assert sum(sp["args"]["phases"] for sp in spans) > 0  # the waves ran
    for s in sources:
        resp = svc.query(s)
        assert resp.from_cache
        assert np.array_equal(resp.distances, dijkstra(g, s).distances)


@pytest.mark.parametrize("kernel", ["argsort", "auto"])
def test_overflow_guard_on_both_back_ends(kernel):
    """A distance/delta ratio of 2**62 or more raises OverflowError on
    either loop: from the heavy phase's push and from the seeds'."""
    g = Graph.from_edges([0, 1], [1, 2], [1.0, 2.0**62], n=3)
    with pytest.raises(OverflowError, match="too large"):
        fused_delta_stepping(g, 0, 1.0, kernel=kernel)
    t = np.full(3, INF)
    t[2] = 2.0**63
    with pytest.raises(OverflowError, match="too large"):
        run_buckets(split_csr_light_heavy(g, 1.0), t, np.array([2]), 1.0, kernel)
    # just under the guard, both loops finish
    g = Graph.from_edges([0, 1], [1, 2], [1.0, 2.0**61], n=3)
    r = fused_delta_stepping(g, 0, 1.0, kernel=kernel)
    assert np.array_equal(r.distances, dijkstra(g, 0).distances)


def test_strided_and_wrong_dtype_t_same_answer():
    """A non-contiguous ``t`` runs on a copy that is written back; a
    float32 ``t`` takes the NumPy loop.  Either way ``auto`` gives the
    pinned NumPy kernel's distances and counters."""
    g = _graph()
    ref_t = np.full(60, INF)
    ref = _loop(g, ref_t, "argsort")
    strided = np.full(120, INF)[::2]
    assert _loop(g, strided, "auto") == ref
    assert np.array_equal(strided, ref_t)
    t32 = {k: np.full(60, INF, dtype=np.float32) for k in ("argsort", "auto")}
    counters = {k: _loop(g, t, k) for k, t in t32.items()}
    assert counters["auto"] == counters["argsort"]
    assert np.array_equal(t32["auto"], t32["argsort"])


@needs_compiled
def test_boundary_checks():
    """Out-of-range seeds and a *t* of any length but n are refused
    (``None``: the caller runs the NumPy loop), the K·n batch state of
    two sources included; a malformed CSR raises instead of reading out
    of bounds; CSR dtypes are converted."""
    g = _graph()
    split = split_csr_light_heavy(g, 0.7)
    t = np.full(60, INF)
    t[0] = 0.0
    assert compiled.run_buckets(split, t, np.array([60]), 0.7) is None
    assert compiled.run_buckets(split, t, np.array([-1]), 0.7) is None
    assert compiled.run_buckets(split, np.full(61, INF), np.array([0]), 0.7) is None
    two_rows = np.full(120, INF)
    two_rows[[0, 65]] = 0.0
    assert compiled.run_buckets(split, two_rows, np.array([0, 65]), 0.7) is None
    assert compiled.run_buckets(split, t.copy(), np.array([0.0]), 0.7) is None
    (Lp, Li, Lw), heavy = split
    assert Lp[1] > Lp[0]  # the seed has a light edge to scan
    bad = np.full_like(Li, 60)
    with pytest.raises(ValueError, match="out of range"):
        compiled.run_buckets(((Lp, bad, Lw), heavy), t.copy(), np.array([0]), 0.7)
    narrow = ((Lp.astype(np.int32), Li.astype(np.int32), Lw.astype(np.float32)), heavy)
    want = t.copy()
    counters = compiled.run_buckets(((Lp, Li, Lw.astype(np.float32).astype(float)), heavy),
                                    want, np.array([0]), 0.7)
    got = t.copy()
    assert compiled.run_buckets(narrow, got, np.array([0]), 0.7) == counters
    assert np.array_equal(got, want)


def test_failed_build_warns_and_falls_back(monkeypatch, tmp_path):
    """A compiler that fails gives one RuntimeWarning naming the command,
    no entry point and nothing left in the cache."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setenv("CC", "false")
    with pytest.warns(RuntimeWarning, match="`false .*buckets.c") as caught:
        assert compiled._load() is None
    assert len(caught) == 1
    assert not list((tmp_path / "repro").glob("*.so"))


@needs_compiled
def test_build_is_cached_per_compiler(monkeypatch, tmp_path):
    """A second load reuses the cached library; another compiler keys
    another entry, so ``CC=false`` does not pick up the cached build."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    assert compiled._load() is not None
    built = list((tmp_path / "repro").iterdir())
    assert len(built) == 1 and built[0].name.startswith("buckets-")
    mtime = built[0].stat().st_mtime_ns
    assert compiled._load() is not None
    assert list((tmp_path / "repro").iterdir()) == built
    assert built[0].stat().st_mtime_ns == mtime
    monkeypatch.setenv("CC", "false")
    with pytest.warns(RuntimeWarning, match="`false "):
        assert compiled._load() is None


@needs_compiled
def test_unwritable_cache_builds_in_a_temp_dir_it_removes(monkeypatch, tmp_path):
    """With no writable cache the build goes to a fresh temporary
    directory, which is gone once the library has loaded."""
    import tempfile

    blocker = tmp_path / "not-a-dir"
    blocker.write_text("")
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))
    assert compiled._load() is not None
    assert list(scratch.iterdir()) == []


def test_hung_compiler_times_out_and_falls_back(monkeypatch, tmp_path):
    slow_cc = tmp_path / "slow-cc"
    slow_cc.write_text("#!/bin/sh\nexec sleep 30\n")
    slow_cc.chmod(0o755)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setenv("CC", str(slow_cc))
    monkeypatch.setattr(compiled, "BUILD_TIMEOUT_S", 0.5)
    with pytest.warns(RuntimeWarning, match="timed out"):
        assert compiled._load() is None
    assert not [p for p in (tmp_path / "repro").iterdir() if p.suffix == ".so"]


def test_solves_on_threads_share_no_scratch():
    """The compiled loop keeps no globals and releases the GIL: solves on
    one graph from several threads at once each get their own answer."""
    import sys
    import threading

    g = _graph()
    want = {s: dijkstra(g, s).distances for s in range(8)}
    got = {}

    def solve(s):
        for _ in range(20):
            got[s] = fused_delta_stepping(g, s, 0.7).distances

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=solve, args=(s,)) for s in range(8)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)
    assert all(np.array_equal(got[s], want[s]) for s in range(8))
