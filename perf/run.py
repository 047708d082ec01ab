"""Served-workload benchmark of ``repro.service.QueryService``.

One workload, measured for ``--seconds`` (the last stdout line is the JSON
result; ``--trace 1`` reports the per-layer metrics instead of the
end-to-end ones)::

    python3 perf/run.py --workload road-cold --seed 1 --seconds 20 --trace 0

Every workload, each in its own subprocess, one at a time, with a table of
every metric and an optional JSON file of all results::

    python3 perf/run.py [--seed N] [--json PATH] [--smoke]

``--smoke`` swaps each workload's graph for a small catalog graph (tests).
See ``perf/README.md`` for the workloads, metrics and bounds.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import repro  # noqa: E402
from repro.graphs import datasets  # noqa: E402
from repro.service import DistanceCache, QueryService  # noqa: E402

from oracle import ReferenceGraph, answer, fingerprint  # noqa: E402
from hostspeed import HostSpeed, scale  # noqa: E402
from tracer import LAYER_UNITS, Tracer, install_layers, layer_metrics  # noqa: E402
from workloads import TIMED, WARMUP, WARMUP_SEED, WEIGHT_SEED, WEIGHTS, WORKLOADS, Inputs, Workload  # noqa: E402

DEFAULT_SECONDS = 20
#: set-up is repeated and its median reported; with --trace 0 the last
#: SETUP_AFTER set-ups run after the timed pass, so that a host slowdown
#: during start-up alone does not set the median
SETUP_REPEATS = 3
SETUP_AFTER = 1
#: rounds of the untraced and traced passes behind the per-layer metrics
TRACE_ROUNDS = 32
#: every VERIFY_EVERY-th round (and every round after a mutation) is checked
VERIFY_EVERY = 4
#: a timed pass also ends after this many times ``--seconds`` of wall time
#: in all, checking and reference tasks included; a healthy pass takes about
#: 1.5 times, and rounds that fail at once would otherwise run for long
PASS_LIMIT = 3
FINGERPRINTS = Path(__file__).resolve().parent / "fingerprints.json"

#: each time among these is CPU time scaled by ``hostspeed.scale``, which
#: takes out how busy the shared host was while it was measured
END_TO_END_UNITS = {
    "setup_s": "s",
    "cpu_ms_per_query": "ms",
    "query_p50_cpu_ms": "ms",
    "peak_rss_mb": "MB",
}


class FingerprintMismatch(RuntimeError):
    """The loaded graph is not the one the benchmark was defined on."""


@dataclass
class Pass:
    """What one closed-loop pass did and measured, round by round."""

    checked: int = 0
    attempted: int = 0
    failed: int = 0
    round_ms: list[float] = field(default_factory=list)  # submit and drain, wall time
    round_cpu_ms: list[float] = field(default_factory=list)  # the same, CPU time
    busy_s: list[float] = field(default_factory=list)  # the round plus the mutation before it
    busy_cpu_s: list[float] = field(default_factory=list)
    host_scale: list[float] = field(default_factory=list)  # see hostspeed.scale
    answered: list[int] = field(default_factory=list)
    mutate_ms: list[float] = field(default_factory=list)
    errors: Counter = field(default_factory=Counter)
    picks: dict[int, str] = field(default_factory=dict)
    responses: list = field(default_factory=list)
    inputs_sha256: str = ""

    @property
    def rounds(self) -> int:
        return len(self.round_ms)

    def failure(self, exc: Exception, count: int) -> None:
        self.failed += count
        self.errors[f"{type(exc).__name__}: {exc}"] += count


def serve(svc, workload: Workload, inputs: Inputs, reference: ReferenceGraph, *,
          seconds: float | None = None, rounds: int | None = None, keep: bool = False,
          speed: HostSpeed | None = None) -> Pass:
    """A closed loop of ``workload.clients`` clients on one thread.

    Each round submits one query per client and drains; every query of a
    round gets the round's time as its latency.  The loop stops after
    *rounds* rounds, or at the first mutation-period boundary after
    *seconds* of round and mutation wall time (or after PASS_LIMIT times
    *seconds* of wall time in all).  Exceptions are counted per
    round, never raised.  Every VERIFY_EVERY-th round and every round after
    a mutation is checked against *reference*, outside the timed sections.
    With *speed*, the reference task runs before the first round and after
    each round, and each round gets the scale of the samples beside it.
    With *keep*, each round's responses are kept.
    """
    p = Pass()
    busy = 0.0
    start = time.perf_counter()
    last = speed.sample() if speed is not None else None

    def more() -> bool:
        if rounds is not None:
            return p.rounds < rounds
        if time.perf_counter() - start > PASS_LIMIT * seconds:
            return False
        return busy < seconds or p.rounds % workload.period != 0

    while more():
        check = p.rounds % VERIFY_EVERY == 0
        mutate_s = mutate_cpu = 0.0
        if workload.mutates_before(p.rounds):
            batch = inputs.mutation(reference.keys, reference.weights, reference.n)
            inserts, deletes, reweights = batch
            p.attempted += 1
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                svc.mutate(inserts=inserts, deletes=deletes, reweights=reweights)
                applied = True
            except Exception as exc:  # counted: the loop must keep serving
                p.failure(exc, 1)
                applied = False
            mutate_s, mutate_cpu = time.perf_counter() - t0, time.process_time() - c0
            p.mutate_ms.append(mutate_s * 1e3)
            if applied:
                reference.apply(*batch)
            check = True
        queries = inputs.queries()
        p.attempted += len(queries)
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            for q in queries:
                svc.submit(q)
            responses = svc.drain()
        except Exception as exc:  # counted: the loop must keep serving
            p.failure(exc, len(queries))
            responses = None
        dt, cpu = time.perf_counter() - t0, time.process_time() - c0
        busy += mutate_s + dt
        p.round_ms.append(dt * 1e3)
        p.round_cpu_ms.append(cpu * 1e3)
        p.busy_s.append(mutate_s + dt)
        p.busy_cpu_s.append(mutate_cpu + cpu)
        p.answered.append(0 if responses is None else len(responses))
        if responses is not None:
            if check:
                p.checked += 1
                p.failed += reference.wrong_answers(responses)
            if svc.tuner is not None:
                p.picks[svc.graph.epoch] = str(svc.planner.stepper)
        if keep:
            p.responses.append(responses)
        if speed is not None:
            now = speed.sample()
            p.host_scale.append(scale(last, now))
            last = now
    p.inputs_sha256 = inputs.digest
    return p


def build_service(workload: Workload, graph_name: str, component, reference: ReferenceGraph):
    """Load the graph, construct the service and run one warm-up round.

    The warm-up round fills the lazy per-epoch caches before timing;
    ``invalidate()`` then empties the distance cache.  Its queries are the
    same for every ``--seed``, so set-up is the same work on every seed.
    Returns ``(service, set-up CPU seconds, load wall seconds, warm-up
    pass)``; the set-up time leaves out the warm-up's checking.
    """
    memo = getattr(datasets, "_load_cached", None)
    if memo is not None:
        memo.cache_clear()  # time the graph build, not a memo hit
    t0, c0 = time.perf_counter(), time.process_time()
    graph = datasets.load(graph_name, weights=WEIGHTS, seed=WEIGHT_SEED)
    load_s = time.perf_counter() - t0
    kwargs = dict(workload.service)
    if workload.cache_capacity is not None:
        kwargs["cache"] = DistanceCache(capacity=workload.cache_capacity)
    svc = QueryService(graph, weight_mode=WEIGHTS, **kwargs)
    built_cpu = time.process_time() - c0
    warm = serve(svc, workload, Inputs(workload, component, WARMUP_SEED, WARMUP), reference, rounds=1)
    c1 = time.process_time()
    svc.invalidate()
    return svc, built_cpu + sum(warm.busy_cpu_s) + time.process_time() - c1, load_s, warm


def count_mismatches(a: Pass, b: Pass) -> int:
    """Queries whose answers differ between two passes over the same inputs."""
    wrong = 0
    for ra, rb in zip(a.responses, b.responses):
        if ra is None or rb is None:
            continue  # already counted as failed
        wrong += sum(not np.array_equal(answer(x), answer(y)) for x, y in zip(ra, rb))
    return wrong


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 smoke: bool = False) -> tuple[dict, dict]:
    """Set up, measure and check one workload; returns ``(result, info)``.

    *result* is the JSON object the benchmark prints last; *info* holds
    diagnostics for the human-readable lines.
    """
    graph_name = workload.smoke_graph if smoke else workload.graph
    pristine = datasets.load(graph_name, weights=WEIGHTS, seed=WEIGHT_SEED)
    # warm-up rounds never mutate, so every set-up checks against this one
    # copy; each measured pass mutates a copy of its own
    reference = ReferenceGraph.of(pristine)
    component = reference.largest_component()

    setup_s, load_s, warmups = [], [], []
    speed = HostSpeed()

    def set_up(times: int):
        svc = None
        for _ in range(times):
            svc = None  # one service alive at a time
            gc.collect()
            before = speed.sample()
            svc, s, load, warm = build_service(workload, graph_name, component, reference)
            setup_s.append(s * scale(before, speed.sample()))
            load_s.append(load)
            warmups.append(warm)
        return svc

    svc = set_up(SETUP_REPEATS - SETUP_AFTER)

    expected = json.loads(FINGERPRINTS.read_text()).get(graph_name)
    got = fingerprint(svc.graph)
    if got != expected:
        raise FingerprintMismatch(f"{graph_name}: expected {expected}, loaded {got}")

    info: dict = {"graph": graph_name, "n": got["n"], "m": got["m"]}
    mismatched = 0
    if not trace:
        inputs = Inputs(workload, component, seed, TIMED)
        p = serve(svc, workload, inputs, ReferenceGraph.of(pristine), seconds=seconds, speed=speed)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        info["cache_hit_ratio"] = svc.cache.stats().hit_rate
        svc = None
        set_up(SETUP_AFTER)
        answered = max(sum(p.answered), 1)  # 0 only when every round failed
        round_cpu_ms = np.multiply(p.round_cpu_ms, p.host_scale)  # scaled
        values = {
            "setup_s": statistics.median(setup_s),
            "cpu_ms_per_query": 1e3 * float(np.dot(p.busy_cpu_s, p.host_scale)) / answered,
            "query_p50_cpu_ms": float(np.median(round_cpu_ms)),
            "peak_rss_mb": rss_mb,
        }
        units = END_TO_END_UNITS
        passes = [p]
        info.update(
            reference_task_ms=statistics.median(speed.samples_ms),
            query_p90_cpu_ms=float(np.percentile(round_cpu_ms, 90)),
            wall_qps=answered / sum(p.busy_s),
            wall_query_p50_ms=statistics.median(p.round_ms),
            wall_query_p90_ms=float(np.percentile(p.round_ms, 90)),
            mutate_p50_ms=statistics.median(p.mutate_ms) if p.mutate_ms else None,
        )
    else:
        untraced = serve(svc, workload, Inputs(workload, component, seed, TIMED),
                         ReferenceGraph.of(pristine), rounds=TRACE_ROUNDS, keep=True, speed=speed)
        svc = None
        tracer = Tracer()
        try:
            install_layers(tracer)
            # built under the tracer, so the service binds the wrapped layers
            svc, _, _, warm = build_service(workload, graph_name, component, reference)
            tracer.reset()
            traced = serve(svc, workload, Inputs(workload, component, seed, TIMED),
                           ReferenceGraph.of(pristine), rounds=TRACE_ROUNDS, keep=True, speed=speed)
        finally:
            tracer.uninstall()
        warmups.append(warm)
        mismatched = count_mismatches(untraced, traced)
        untraced_s, traced_s = (float(np.dot(q.busy_cpu_s, q.host_scale)) for q in (untraced, traced))
        info.update(untraced_cpu_s=untraced_s, traced_cpu_s=traced_s)
        values = layer_metrics(
            tracer, threading.get_ident(), traced_wall_s=sum(traced.busy_s),
            overhead=traced_s / untraced_s - 1.0, load_s=statistics.median(load_s),
            cache=svc.cache.stats(),
        )
        units = LAYER_UNITS
        passes = [untraced, traced]
        p = traced

    everything = warmups + passes
    attempted = sum(q.attempted for q in everything)
    failed = sum(q.failed for q in everything) + mismatched
    info.update(
        rounds=p.rounds,
        checked=sum(q.checked for q in passes),
        inputs_sha256=p.inputs_sha256,
        tuner_picks=p.picks,
        errors=dict(sum((q.errors for q in everything), Counter())),
        fail_frac=failed / attempted,
    )
    result = {
        "correct": failed == 0 and all(q.checked > 0 for q in passes),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in values.items()},
    }
    return result, info


def run_all(args) -> int:
    """Every workload, trace off then on, each run in its own subprocess."""
    results: dict = {}
    for name in WORKLOADS:
        results[name] = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            if args.smoke:
                cmd.append("--smoke")
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900, check=False)
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout + proc.stderr)
                return proc.returncode
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            results[name]["per_layer" if trace else "end_to_end"] = json.loads(lines[-1])
    if args.json:
        args.json.write_text(json.dumps(results, indent=2) + "\n")
    return 0 if all(r[k]["correct"] for r in results.values() for k in r) else 1


def describe(name: str, result: dict, info: dict) -> str:
    """Human-readable lines: diagnostics, then one line per metric."""
    lines = [f"[{name}] " + ", ".join(f"{k}={v}" for k, v in info.items())]
    lines.append(f"[{name}] correct={result['correct']} attempted={result['attempted']} "
                 f"failed={result['failed']}")
    for metric, m in result["metrics"].items():
        lines.append(f"[{name}]   {metric:32s} {m['value']:14.4f} {m['unit']}")
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=list(WORKLOADS), help="run one workload in this process")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                    help="round and mutation time of the measured pass")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: report per-layer metrics from a traced pass")
    ap.add_argument("--smoke", action="store_true", help="small graphs, for tests")
    ap.add_argument("--json", type=Path, help="also write the result(s) to this file")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if Path(repro.__file__).resolve().parent.parent != ROOT / "src":
        print(f"repro imported from {repro.__file__}, not from this checkout", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args)
    try:
        result, info = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                                    bool(args.trace), args.smoke)
    except FingerprintMismatch as exc:
        print(f"input fingerprint mismatch: {exc}", file=sys.stderr)
        return 2
    if args.json:
        args.json.write_text(json.dumps(result, indent=2) + "\n")
    print(describe(args.workload, result, info))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
