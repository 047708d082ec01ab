"""Per-layer self time from wrappers around each layer's public entry points.

:class:`Tracer` replaces functions and methods with timing wrappers and
restores them on :meth:`Tracer.uninstall`.  A span is one call of a
wrapped callable; its self time is its duration minus the spans nested
inside it on the same thread.  :func:`install_layers` wraps the layers
the benchmark reports and :func:`layer_metrics` turns the spans and
counters into the per-layer metrics.
"""

from __future__ import annotations

import sys
import threading
from collections import defaultdict
from time import perf_counter_ns

_ABSENT = object()

#: name -> unit of every per-layer metric :func:`layer_metrics` returns
LAYER_UNITS = {
    "service.drain.self_ms": "ms",
    "service.planner.self_ms": "ms",
    "service.cache.self_ms": "ms",
    "service.cache.hit_ratio": "ratio",
    "service.cache.evictions": "count",
    "service.mutate.self_ms": "ms",
    "service.batch.calls": "count",
    "service.batch.sources": "count",
    "service.batch.self_ms": "ms",
    "service.batch.phases": "count",
    "service.batch.relaxations": "count",
    "service.batch.relax_per_ms": "1/ms",
    "service.batch.update_ratio": "ratio",
    "sssp.split_csr.calls": "count",
    "sssp.split_csr.self_ms": "ms",
    "stepping.solve.calls": "count",
    "stepping.solve.self_ms": "ms",
    "stepping.solve.phases": "count",
    "stepping.solve.relaxations": "count",
    "stepping.solve.update_ratio": "ratio",
    "stepping.autotune.probes": "count",
    "stepping.autotune.probe_ms": "ms",
    "kernels.calls": "count",
    "kernels.candidates": "count",
    "kernels.self_ms": "ms",
    "kernels.ns_per_candidate": "ns",
    "kernels.us_per_call": "us",
    "kernels.unique_ratio": "ratio",
    "kernels.mb_computed": "MB",
    "dynamic.apply.calls": "count",
    "dynamic.apply.updates": "count",
    "dynamic.apply.self_ms": "ms",
    "dynamic.repair.calls": "count",
    "dynamic.repair.self_ms": "ms",
    "dynamic.repair.affected": "count",
    "dynamic.repair.affected_frac": "ratio",
    "shard.superstep.calls": "count",
    "shard.superstep.wall_ms": "ms",
    "shard.step.busy_ms": "ms",
    "shard.dispatch_overhead_ms": "ms",
    "shard.imbalance_ms": "ms",
    "shard.exchange.flush_ms": "ms",
    "shard.exchange.entries_posted": "count",
    "shard.exchange.entries_applied": "count",
    "shard.exchange.applied_ratio": "ratio",
    "shard.exchange.bytes_carried": "bytes",
    "graphs.load_ms": "ms",
    "bench.trace_overhead_pct": "%",
    "bench.unattributed_pct": "%",
}


class _ThreadState:
    def __init__(self) -> None:
        self.stack: list[int] = []  # per open span: time covered by its children
        self.root_ns = 0  # time covered by outermost spans
        self.spans: dict[str, list[int]] = {}  # name -> [calls, total ns, self ns]
        self.counts: defaultdict[str, float] = defaultdict(float)


class Tracer:
    """Timing wrappers with per-thread span stacks (see module docstring)."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: dict[int, _ThreadState] = {}
        self._patches: list[tuple[object, str, object]] = []

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            st = self._local.state = _ThreadState()
            with self._lock:
                self._threads[threading.get_ident()] = st
        return st

    def wrap(self, name: str, fn, observe=None):
        """*fn* timed as span *name*; ``observe(counts, args, kwargs, result, ns)``
        runs after each call that returns."""
        state = self._state

        def traced(*args, **kwargs):
            st = state()
            stack = st.stack
            stack.append(0)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                ns = perf_counter_ns() - t0
                children = stack.pop()
                if stack:
                    stack[-1] += ns
                else:
                    st.root_ns += ns
                span = st.spans.get(name)
                if span is None:
                    span = st.spans[name] = [0, 0, 0]
                span[0] += 1
                span[1] += ns
                span[2] += ns - children
            if observe is not None:
                observe(st.counts, args, kwargs, result, ns)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installation --------------------------------------------------------

    def patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner).get(attr, _ABSENT)))
        setattr(owner, attr, value)

    def wrap_function(self, name: str, fn, observe=None) -> None:
        """Rebind every ``repro.*`` module attribute that is *fn* to one wrapper."""
        traced = self.wrap(name, fn, observe)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self.patch(mod, attr, traced)

    def wrap_method(self, name: str, cls, attr: str, observe=None) -> None:
        self.patch(cls, attr, self.wrap(name, vars(cls)[attr], observe))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, previous = self._patches.pop()
            if previous is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, previous)

    # -- results ---------------------------------------------------------------

    def reset(self) -> None:
        """Forget every span and counter (call with no span open)."""
        with self._lock:
            for st in self._threads.values():
                st.root_ns = 0
                st.spans.clear()
                st.counts.clear()

    def span_totals(self) -> dict[str, list[int]]:
        """name -> [calls, total ns, self ns], summed over threads."""
        out: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])
        with self._lock:
            for st in self._threads.values():
                for name, (calls, total, own) in st.spans.items():
                    agg = out[name]
                    agg[0] += calls
                    agg[1] += total
                    agg[2] += own
        return out

    def counts(self) -> dict[str, float]:
        out: defaultdict[str, float] = defaultdict(float)
        with self._lock:
            for st in self._threads.values():
                for key, value in st.counts.items():
                    out[key] += value
        return out

    def root_ns(self, thread_id: int) -> int:
        """Time covered by outermost spans on one thread."""
        with self._lock:
            st = self._threads.get(thread_id)
        return st.root_ns if st is not None else 0


# -- the layers the benchmark reports --------------------------------------------


def _count_solve(prefix):
    def observe(counts, args, kwargs, result, ns):
        counts[prefix + ".phases"] += result.phases
        counts[prefix + ".relaxations"] += result.relaxations
        counts[prefix + ".updates"] += result.updates
        extra = getattr(result, "extra", {})
        if "entries_posted" in extra:
            for key in ("entries_posted", "entries_applied", "bytes_carried"):
                counts["shard.exchange." + key] += extra[key]

    return observe


_count_stepper_solve = _count_solve("stepping.solve")
_count_batch_work = _count_solve("service.batch")


def _count_batch(counts, args, kwargs, result, ns):
    counts["service.batch.sources"] += len(result.sources)
    _count_batch_work(counts, args, kwargs, result, ns)


def _count_min_by_target(counts, args, kwargs, result, ns):
    targets, dists = args[0], args[1]
    counts["kernels.candidates"] += len(targets)
    counts["kernels.unique"] += len(result[0])
    counts["kernels.bytes"] += targets.nbytes + dists.nbytes + result[0].nbytes + result[1].nbytes


def _count_gather(counts, args, kwargs, result, ns):
    frontier = args[3]
    counts["kernels.bytes"] += frontier.nbytes
    if result[0] is not None:
        counts["kernels.bytes"] += result[0].nbytes + result[1].nbytes


def _count_apply(counts, args, kwargs, result, ns):
    counts["dynamic.apply.updates"] += result.num_updates


def _count_repair(counts, args, kwargs, result, ns):
    counts["dynamic.repair.affected"] += result.affected
    counts["dynamic.repair.vertices"] += args[0].num_vertices


def _traced_transport_run(tracer: Tracer, run, parallel: bool):
    """``Transport.run`` with each step fn timed as a ``shard.step`` span on
    the thread that runs it, plus the superstep's dispatch overhead (wall
    time beyond the steps' critical path: the slowest step when they run
    in *parallel*, their sum otherwise) and imbalance (slowest - mean)."""

    def traced_run(self, fns):
        steps: list[int] = []

        def record(counts, args, kwargs, result, ns):
            steps.append(ns)

        t0 = perf_counter_ns()
        result = run(self, [tracer.wrap("shard.step", fn, record) for fn in fns])
        wall = perf_counter_ns() - t0
        if steps:
            counts = tracer._state().counts
            slowest = max(steps)
            counts["shard.dispatch_overhead_ns"] += wall - (slowest if parallel else sum(steps))
            counts["shard.imbalance_ns"] += slowest - sum(steps) / len(steps)
        return result

    return traced_run


def install_layers(tracer: Tracer) -> None:
    """Wrap every layer entry point the per-layer metrics are computed from."""
    from repro.dynamic import apply_edge_updates, repair_sssp
    from repro.kernels import gather_candidates, min_by_target
    from repro.service import DistanceCache, QueryService
    from repro.service.batch import batch_delta_stepping
    from repro.service.planner import QueryPlanner
    from repro.shard.exchange import FrontierExchange, InProcessTransport, PoolTransport
    from repro.sssp.fused import split_csr_light_heavy
    from repro.stepping import STEPPERS, AutoTuner

    tracer.wrap_method("service.drain", QueryService, "drain")
    tracer.wrap_method("service.mutate", QueryService, "mutate")
    tracer.wrap_method("service.planner", QueryPlanner, "plan")
    tracer.wrap_method("service.cache", DistanceCache, "get")
    tracer.wrap_method("service.cache", DistanceCache, "put")
    tracer.wrap_function("service.batch", batch_delta_stepping, _count_batch)
    tracer.wrap_function("sssp.split_csr", split_csr_light_heavy)
    for stepper in STEPPERS.values():
        tracer.patch(stepper, "solve", tracer.wrap("stepping.solve", stepper.solve, _count_stepper_solve))
    tracer.wrap_method("stepping.autotune", AutoTuner, "probe")
    tracer.wrap_function("kernels", gather_candidates, _count_gather)
    tracer.wrap_function("kernels", min_by_target, _count_min_by_target)
    tracer.wrap_function("dynamic.apply", apply_edge_updates, _count_apply)
    tracer.wrap_function("dynamic.repair", repair_sssp, _count_repair)
    for transport, parallel in ((PoolTransport, True), (InProcessTransport, False)):
        traced_run = _traced_transport_run(tracer, vars(transport)["run"], parallel)
        tracer.patch(transport, "run", tracer.wrap("shard.superstep", traced_run))
    tracer.wrap_method("shard.exchange", FrontierExchange, "flush")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, main_thread: int, *, traced_wall_s: float, overhead: float,
                  load_s: float, cache) -> dict[str, float]:
    """Every :data:`LAYER_UNITS` metric from one traced pass.

    *traced_wall_s* is the wall time of the traced rounds; *overhead* is
    how much longer they took than the same rounds untraced, as a share;
    *cache* is the traced service's :class:`~repro.service.cache.CacheStats`.
    """
    spans, counts = tracer.span_totals(), tracer.counts()
    calls = {name: s[0] for name, s in spans.items()}
    total_ms = {name: s[1] / 1e6 for name, s in spans.items()}
    self_ms = {name: s[2] / 1e6 for name, s in spans.items()}

    def c(key: str) -> float:
        return counts.get(key, 0.0)

    m = {
        "service.drain.self_ms": self_ms.get("service.drain", 0.0),
        "service.planner.self_ms": self_ms.get("service.planner", 0.0),
        "service.cache.self_ms": self_ms.get("service.cache", 0.0),
        "service.cache.hit_ratio": _ratio(cache.hits, cache.hits + cache.misses),
        "service.cache.evictions": cache.evictions,
        "service.mutate.self_ms": self_ms.get("service.mutate", 0.0),
        "service.batch.calls": calls.get("service.batch", 0),
        "service.batch.sources": c("service.batch.sources"),
        "service.batch.self_ms": self_ms.get("service.batch", 0.0),
        "service.batch.phases": c("service.batch.phases"),
        "service.batch.relaxations": c("service.batch.relaxations"),
        "service.batch.relax_per_ms": _ratio(c("service.batch.relaxations"), total_ms.get("service.batch", 0.0)),
        "service.batch.update_ratio": _ratio(c("service.batch.updates"), c("service.batch.relaxations")),
        "sssp.split_csr.calls": calls.get("sssp.split_csr", 0),
        "sssp.split_csr.self_ms": self_ms.get("sssp.split_csr", 0.0),
        "stepping.solve.calls": calls.get("stepping.solve", 0),
        "stepping.solve.self_ms": self_ms.get("stepping.solve", 0.0),
        "stepping.solve.phases": c("stepping.solve.phases"),
        "stepping.solve.relaxations": c("stepping.solve.relaxations"),
        "stepping.solve.update_ratio": _ratio(c("stepping.solve.updates"), c("stepping.solve.relaxations")),
        "stepping.autotune.probes": calls.get("stepping.autotune", 0),
        "stepping.autotune.probe_ms": total_ms.get("stepping.autotune", 0.0),
        "kernels.calls": calls.get("kernels", 0),
        "kernels.candidates": c("kernels.candidates"),
        "kernels.self_ms": self_ms.get("kernels", 0.0),
        "kernels.ns_per_candidate": _ratio(self_ms.get("kernels", 0.0) * 1e6, c("kernels.candidates")),
        "kernels.us_per_call": _ratio(self_ms.get("kernels", 0.0) * 1e3, calls.get("kernels", 0)),
        "kernels.unique_ratio": _ratio(c("kernels.unique"), c("kernels.candidates")),
        "kernels.mb_computed": c("kernels.bytes") / 1e6,
        "dynamic.apply.calls": calls.get("dynamic.apply", 0),
        "dynamic.apply.updates": c("dynamic.apply.updates"),
        "dynamic.apply.self_ms": self_ms.get("dynamic.apply", 0.0),
        "dynamic.repair.calls": calls.get("dynamic.repair", 0),
        "dynamic.repair.self_ms": self_ms.get("dynamic.repair", 0.0),
        "dynamic.repair.affected": c("dynamic.repair.affected"),
        "dynamic.repair.affected_frac": _ratio(c("dynamic.repair.affected"), c("dynamic.repair.vertices")),
        "shard.superstep.calls": calls.get("shard.superstep", 0),
        "shard.superstep.wall_ms": total_ms.get("shard.superstep", 0.0),
        "shard.step.busy_ms": total_ms.get("shard.step", 0.0),
        "shard.dispatch_overhead_ms": c("shard.dispatch_overhead_ns") / 1e6,
        "shard.imbalance_ms": c("shard.imbalance_ns") / 1e6,
        "shard.exchange.flush_ms": total_ms.get("shard.exchange", 0.0),
        "shard.exchange.entries_posted": c("shard.exchange.entries_posted"),
        "shard.exchange.entries_applied": c("shard.exchange.entries_applied"),
        "shard.exchange.applied_ratio": _ratio(c("shard.exchange.entries_applied"), c("shard.exchange.entries_posted")),
        "shard.exchange.bytes_carried": c("shard.exchange.bytes_carried"),
        "graphs.load_ms": load_s * 1e3,
        "bench.trace_overhead_pct": 100.0 * overhead,
        "bench.unattributed_pct": 100.0 * (1.0 - tracer.root_ns(main_thread) / 1e9 / traced_wall_s),
    }
    assert m.keys() == LAYER_UNITS.keys()
    return {k: float(v) for k, v in m.items()}
