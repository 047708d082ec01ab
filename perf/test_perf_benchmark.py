"""Tests of the served-workload benchmark (smoke graphs; well under a minute)."""

from __future__ import annotations

import dataclasses
import json
import re
import subprocess
import sys
import threading
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

import run
import tracer as tracer_mod
from oracle import ReferenceGraph
from repro.dynamic import apply_edge_updates
from repro.graphs import datasets
from repro.service.batch import batch_delta_stepping
from repro.sssp import dijkstra
from repro.stepping import AutoTuner
from hostspeed import REFERENCE_MS, HostSpeed, scale
from tracer import Tracer, install_layers
from workloads import (MUTATE_FRACTION, STRATA_ROUNDS, WEIGHT_SEED, WEIGHTS, WORKLOADS, Inputs,
                       mutation_batch)

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def _load(name):
    return datasets.load(name, weights=WEIGHTS, seed=WEIGHT_SEED)


def _smoke(workload, trace=False, seconds=0.3):
    return run.run_workload(workload, seed=1, seconds=seconds, trace=trace, smoke=True)


# -- inputs ------------------------------------------------------------------------


def _digest(workload, seed, rounds=30):
    reference = ReferenceGraph.of(_load(workload.smoke_graph))
    inputs = Inputs(workload, reference.largest_component(), seed)
    for r in range(rounds):
        if workload.mutates_before(r):
            reference.apply(*inputs.mutation(reference.keys, reference.weights, reference.n))
        inputs.queries()
    return inputs.digest


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(name):
    w = WORKLOADS[name]
    assert _digest(w, 1) == _digest(w, 1)
    assert _digest(w, 1) != _digest(w, 2)


def test_uniform_sources_cover_every_slice_once_per_strata_rounds():
    w = WORKLOADS["road-cold"]
    component = ReferenceGraph.of(_load(w.smoke_graph)).largest_component()
    inputs = Inputs(w, component, seed=4)
    slices = w.clients * STRATA_ROUNDS
    position = {int(v): i for i, v in enumerate(component)}
    n = len(component)
    for _ in range(3):
        # the i-th slice of the component holds positions i*n/slices .. (i+1)*n/slices
        hit = sorted(position[q.source] for _ in range(STRATA_ROUNDS) for q in inputs.queries())
        assert all(i * n // slices <= h <= (i + 1) * n // slices for i, h in enumerate(hit))


def test_host_speed_scale():
    speed = HostSpeed()
    assert speed.sample() > 0 and len(speed.samples_ms) == 1
    assert scale(REFERENCE_MS, REFERENCE_MS) == 1.0
    assert scale(2 * REFERENCE_MS, 2 * REFERENCE_MS) == 0.5  # a host half as fast


def test_mutation_batches_apply_strictly_and_match_the_reference_model():
    w = WORKLOADS["ba-mutate"]
    graph = _load(w.smoke_graph)
    reference = ReferenceGraph.of(graph)
    inputs = Inputs(w, reference.largest_component(), seed=5)
    for _ in range(3):
        inserts, deletes, reweights = batch = inputs.mutation(reference.keys, reference.weights, reference.n)
        assert len(inserts[0]) and len(deletes[0]) and len(reweights[0])
        apply_edge_updates(graph, inserts=inserts, deletes=deletes, reweights=reweights)
        reference.apply(*batch)
        mirrored = ReferenceGraph.of(graph)
        assert np.array_equal(mirrored.keys, reference.keys)
        assert np.array_equal(mirrored.weights, reference.weights)


# -- oracle ------------------------------------------------------------------------


@pytest.mark.parametrize("graph_name", sorted({w.graph for w in WORKLOADS.values()}))
def test_scipy_matches_repro_dijkstra_before_and_after_a_mutation(graph_name):
    graph = _load(graph_name)
    reference = ReferenceGraph.of(graph)
    source = int(reference.largest_component()[7])
    assert np.array_equal(reference.distances(source), dijkstra(graph, source).distances)
    rng = np.random.default_rng(1)
    inserts, deletes, reweights = batch = mutation_batch(
        reference.keys, reference.weights, reference.n, MUTATE_FRACTION, rng
    )
    apply_edge_updates(graph, inserts=inserts, deletes=deletes, reweights=reweights)
    reference.apply(*batch)
    assert np.array_equal(reference.distances(source), dijkstra(graph, source).distances)


def test_wrong_row_counts_as_failure():
    def off_by_one(graph, sources, **kw):
        result = batch_delta_stepping(graph, sources, **kw)
        result.distances = result.distances.copy()
        result.distances[0, np.isfinite(result.distances[0])] += 1.0
        return result

    w = dataclasses.replace(WORKLOADS["road-cold"], service={"solver": off_by_one})
    result, info = _smoke(w)
    assert result["failed"] > 0 and not result["correct"]
    assert info["fail_frac"] > 0


def test_failing_solver_is_counted_not_fatal():
    def broken(graph, sources, **kw):
        raise RuntimeError("solver down")

    w = dataclasses.replace(WORKLOADS["road-cold"], service={"solver": broken})
    result, info = _smoke(w)
    assert result["failed"] == result["attempted"] > 0
    assert info["errors"] == {"RuntimeError: solver down": result["failed"]}


def test_scatter_kernel_autotune_pick_is_counted():
    # a tuned "delta(kernel=scatter)" pick maps onto the fused batch
    # engine, which rejects spec params: every exact solve raises
    tuner = AutoTuner(candidates=("delta(kernel=scatter)",))
    w = dataclasses.replace(WORKLOADS["ba-mutate"], service={"tuner": tuner})
    result, info = _smoke(w)
    assert result["failed"] > 0
    assert any("takes no spec params" in e for e in info["errors"])


def test_set_ups_check_against_the_unmutated_graph(monkeypatch):
    # set-ups run after the timed pass too; their warm-up answers must be
    # checked against the pristine graph, not the pass's mutated copy
    mutated, checked = [], []
    apply, build = ReferenceGraph.apply, run.build_service

    def spy_apply(self, *batch):
        mutated.append(self)
        return apply(self, *batch)

    def spy_build(*args):
        checked.append(args[-1])
        return build(*args)

    monkeypatch.setattr(ReferenceGraph, "apply", spy_apply)
    monkeypatch.setattr(run, "build_service", spy_build)
    result, _ = _smoke(WORKLOADS["ba-mutate"])
    assert result["correct"]
    assert mutated and len(checked) == run.SETUP_REPEATS
    assert not any(m is c for m in mutated for c in checked)


def test_fingerprint_mismatch_is_refused(monkeypatch, tmp_path):
    bad = tmp_path / "fingerprints.json"
    bad.write_text(json.dumps({"ci-road": {"n": 1, "m": 0, "sha256": "0"}}))
    monkeypatch.setattr(run, "FINGERPRINTS", bad)
    with pytest.raises(run.FingerprintMismatch):
        _smoke(WORKLOADS["road-cold"])


# -- tracer ------------------------------------------------------------------------


def _repro_bindings(fn):
    return [
        (mod, attr)
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "repro" or name.startswith("repro."))
        for attr, value in list(vars(mod).items())
        if value is fn
    ]


def test_install_wraps_every_binding_and_uninstall_restores_identity():
    from repro.dynamic import repair_sssp
    from repro.kernels import gather_candidates, min_by_target
    from repro.service import QueryService
    from repro.sssp.fused import split_csr_light_heavy
    from repro.stepping import STEPPERS

    originals = [gather_candidates, min_by_target, batch_delta_stepping,
                 split_csr_light_heavy, apply_edge_updates, repair_sssp]
    before = {id(fn): _repro_bindings(fn) for fn in originals}
    drain = vars(QueryService)["drain"]
    t = Tracer()
    try:
        install_layers(t)
        for fn in originals:
            assert _repro_bindings(fn) == []
            for mod, attr in before[id(fn)]:
                assert getattr(mod, attr).__wrapped__ is fn
        assert vars(QueryService)["drain"].__wrapped__ is drain
        assert all("solve" in vars(s) for s in STEPPERS.values())
    finally:
        t.uninstall()
    for fn in originals:
        assert _repro_bindings(fn) == before[id(fn)]
    assert vars(QueryService)["drain"] is drain
    assert not any("solve" in vars(s) for s in STEPPERS.values())


@pytest.fixture
def fake_clock(monkeypatch):
    clocks = defaultdict(int)
    monkeypatch.setattr(tracer_mod, "perf_counter_ns", lambda: clocks[threading.get_ident()])

    def tick(ns):
        clocks[threading.get_ident()] += ns

    return tick


def test_self_time_of_nested_spans(fake_clock):
    t = Tracer()
    leaf = t.wrap("leaf", lambda: fake_clock(7))

    def middle_body():
        fake_clock(3)
        leaf()
        leaf()

    middle = t.wrap("middle", middle_body)

    def outer_body():
        fake_clock(10)
        middle()
        fake_clock(1)

    t.wrap("outer", outer_body)()
    spans = t.span_totals()
    assert spans["leaf"] == [2, 14, 14]
    assert spans["middle"] == [1, 17, 3]
    assert spans["outer"] == [1, 28, 11]
    assert t.root_ns(threading.get_ident()) == 28


def test_self_time_does_not_mix_threads(fake_clock):
    t = Tracer()
    barrier = threading.Barrier(2, timeout=10)
    inner = t.wrap("inner", lambda: fake_clock(30))

    def outer_body():
        fake_clock(10)
        barrier.wait()  # both threads are inside "outer" before either enters "inner"
        inner()
        barrier.wait()
        fake_clock(5)

    outer = t.wrap("outer", outer_body)
    threads = [threading.Thread(target=outer) for _ in range(2)]
    for th in threads:
        th.start()
    for th in threads:
        th.join(timeout=10)
    assert not any(th.is_alive() for th in threads)
    spans = t.span_totals()
    assert spans["outer"] == [2, 90, 30]
    assert spans["inner"] == [2, 60, 60]
    assert all(t.root_ns(th.ident) == 45 for th in threads)


# -- names and schema -------------------------------------------------------------


def test_benchmark_json_names_and_settings():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert BENCHMARK["run_seconds"] == run.DEFAULT_SECONDS
    for section, units in (("end_to_end", run.END_TO_END_UNITS), ("per_layer", tracer_mod.LAYER_UNITS)):
        assert {m["name"]: m["unit"] for m in BENCHMARK[section]} == units
        assert all(NAME.match(m["name"]) and m["unit"] for m in BENCHMARK[section])
    assert all(NAME.match(w["name"]) for w in BENCHMARK["workloads"])


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_runs_emit_exactly_the_declared_metrics(name):
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        result, info = _smoke(WORKLOADS[name], trace=trace)
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
        assert {k: m["unit"] for k, m in result["metrics"].items()} == declared
        assert all(np.isfinite(m["value"]) for m in result["metrics"].values())
        if trace:
            layer = "shard.superstep.calls" if name == "road-sharded" else "service.batch.calls"
            assert result["metrics"][layer]["value"] > 0


def test_command_line_prints_the_result_last():
    proc = subprocess.run(
        [sys.executable, str(Path(run.__file__)), "--workload", "road-cold", "--seed", "3",
         "--seconds", "0.3", "--trace", "0", "--smoke"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"]
