"""Command-line interface: ``python -m repro <command>`` / ``repro-sssp``.

Commands map one-to-one onto the experiment registry plus a few
utilities:

==========  ==================================================================
fig3        regenerate Figure 3 (unfused vs fused sequential runtime)
fig4        regenerate Figure 4 (task-parallel speedup; simulated by default)
profile     regenerate the §VI.C operation-share breakdown
run         one SSSP run with any registered stepper, printing the summary
query       answer distance queries through the service layer (cache + batch)
trace       record one traced run (solve + queries) as Chrome trace JSON
report      render a recorded run (or a saved trace JSON) as a markdown/HTML report
metrics     OpenMetrics exposition of a recorded run
bench-diff  diff fresh BENCH_*.json against committed baselines (regression gate)
serve-bench regenerate the SERVE experiment (batched vs looped throughput)
mutate-bench regenerate the DYN experiment (incremental repair vs recompute)
step-bench  regenerate the STEP experiment (stepping portfolio + tuner pick)
shard-bench regenerate the SHARD experiment (partition-parallel speedup + comm volume)
kernel-bench regenerate the KERNEL experiment (relaxation kernels vs the seed loop)
steppers    list the stepping-algorithm registry and Δ strategies
suite       list the dataset suite with structural statistics
translate   show the IR translation pipeline + fusion report
lint        run the repo's static-analysis rules (repro.analysis.lint)
chaos       run the serving-tier breaker drill
==========  ==================================================================

``run``, ``query``, and ``serve-bench`` take ``--stepper SPEC`` to pin a
stepping algorithm — a registry name or a parameterized spec such as
``"sharded(shards=4,partitioner=bfs)"`` or ``"delta(kernel=scatter)"`` —
and ``--auto`` to let the per-graph auto-tuner pick.  ``run`` and
``query`` take ``--trace PATH`` to record the run through
:mod:`repro.obs` (Chrome trace JSON, loadable in Perfetto); ``trace`` is
the dedicated command for that, and its ``--flight-smoke`` mode is the
CI gate keeping always-on recording of the serving path under 5%.

Every bench runner (``serve-bench``, ``mutate-bench``, ``step-bench``,
``shard-bench``, ``kernel-bench``) also writes its rows as
``BENCH_<NAME>.json`` next to the repo root through the shared writer in
:mod:`repro.bench.registry` — the machine-readable perf trajectory.
``bench-diff`` is the consumer: it compares a fresh run's JSON against
the committed baselines (and the ``BENCH_HISTORY.jsonl`` noise ledger)
and exits non-zero on regression; ``report`` turns a recorded run into
a shareable document; ``metrics`` exposes the same run's registry as
OpenMetrics text.
"""

from __future__ import annotations

import argparse
import os
import sys

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro-sssp",
        description="Delta-stepping SSSP / GraphBLAS reproduction harness",
    )
    sub = p.add_subparsers(dest="command", required=True)

    for fig in ("fig3", "fig4", "profile"):
        sp = sub.add_parser(fig, help=f"regenerate {fig.upper()} from the paper")
        sp.add_argument("--suite", default="ci", choices=["ci", "paper"], help="graph suite (default: ci)")
        if fig == "fig3":
            sp.add_argument("--repeats", type=int, default=3)
        if fig == "fig4":
            sp.add_argument("--real", action="store_true", help="time real threads instead of the simulated schedule")
            sp.add_argument("--threads", type=int, nargs="+", default=[2, 4])

    def add_stepper_flags(sp):
        sp.add_argument("--stepper", default=None,
                        help="pin a stepping algorithm: a registry name or a spec "
                             "like 'sharded(shards=4,partitioner=bfs)' (see `steppers`)")
        sp.add_argument("--auto", action="store_true",
                        help="let the per-graph auto-tuner pick the stepper")

    def add_trace_flag(sp):
        sp.add_argument("--trace", metavar="PATH", default=None,
                        help="record a Chrome-trace JSON of the run to PATH "
                             "(open in Perfetto / chrome://tracing)")

    sp = sub.add_parser("run", help="run one SSSP configuration")
    sp.add_argument("graph", help="dataset name (see `suite`)")
    sp.add_argument("--source", type=int, default=None, help="default: largest-component vertex")
    sp.add_argument("--delta", type=float, default=None)
    sp.add_argument("--weights", default="unit")
    sp.add_argument("--verify", action="store_true", help="validate against Dijkstra")
    add_stepper_flags(sp)
    add_trace_flag(sp)

    sp = sub.add_parser("query", help="answer distance queries via the service layer")
    sp.add_argument("graph", help="dataset name (see `suite`)")
    sp.add_argument("--source", type=int, default=None, help="default: largest-component vertex")
    sp.add_argument("--target", type=int, default=None, help="point query target (default: distance summary)")
    sp.add_argument("--weights", default="unit")
    sp.add_argument("--repeat", type=int, default=2, help="ask the same query N times (shows the cache working)")
    sp.add_argument("--landmarks", type=int, default=0, help="build an ALT index with N landmarks and print bounds")
    add_stepper_flags(sp)
    add_trace_flag(sp)

    sp = sub.add_parser(
        "trace",
        help="record one traced run (solve + service queries) as Chrome trace JSON",
    )
    sp.add_argument("graph", nargs="?", default="ci-ws",
                    help="dataset name (default: ci-ws; see `suite`)")
    sp.add_argument("--stepper", default="delta",
                    help="stepper spec to trace, e.g. 'sharded(shards=4,partitioner=bfs)' "
                         "(default: delta)")
    sp.add_argument("--weights", default="unit")
    sp.add_argument("--queries", type=int, default=8,
                    help="also serve N point queries through a recorded QueryService "
                         "(0 disables; default: 8)")
    sp.add_argument("--out", default="trace.json", help="output path (default: trace.json)")
    sp.add_argument("--flight-smoke", action="store_true",
                    help="CI gate instead of tracing: serve queries end-to-end with a "
                         "flight recorder enabled vs no recorder and exit non-zero if "
                         "always-on recording costs more than 5%%")

    sp = sub.add_parser(
        "report",
        help="render a recorded run (or a saved trace JSON) as a run report",
    )
    sp.add_argument("graph", nargs="?", default="ci-ws",
                    help="dataset name to run and report (default: ci-ws; ignored with --trace)")
    sp.add_argument("--stepper", default="sharded(shards=4,partitioner=bfs)",
                    help="stepper spec to record, e.g. 'sharded(shards=4,partitioner=bfs)' "
                         "(default: sharded(shards=4,partitioner=bfs) — the per-superstep "
                         "exchange ledger needs a sharded run)")
    sp.add_argument("--weights", default="unit")
    sp.add_argument("--queries", type=int, default=8,
                    help="also serve N point queries through a recorded QueryService "
                         "(0 disables; default: 8)")
    sp.add_argument("--trace", metavar="PATH", default=None,
                    help="render a saved Chrome-trace JSON instead of running anything")
    sp.add_argument("--format", dest="fmt", default="md", choices=["md", "html"],
                    help="output format (default: md)")
    sp.add_argument("--out", default=None,
                    help="write the report to PATH instead of stdout")
    sp.add_argument("--title", default=None, help="report title")
    sp.add_argument("--request", metavar="ID", default=None,
                    help="narrow the report to one request's spans "
                         "(matches the request_id span arg, live or from --trace)")
    sp.add_argument("--slow-ms", type=float, default=None,
                    help="record a slow-query log at this threshold during the run "
                         "and render the 'Slow queries' section")
    sp.add_argument("--slow-log", metavar="PATH", default=None,
                    help="render the 'Slow queries' section from a saved JSONL log "
                         "(SlowQueryLog.write output)")

    sp = sub.add_parser(
        "metrics",
        help="OpenMetrics exposition of a recorded run",
    )
    sp.add_argument("graph", nargs="?", default="ci-ws",
                    help="dataset name (default: ci-ws; see `suite`)")
    sp.add_argument("--stepper", default="delta",
                    help="stepper spec to record (default: delta)")
    sp.add_argument("--weights", default="unit")
    sp.add_argument("--queries", type=int, default=8,
                    help="also serve N point queries through a recorded QueryService "
                         "(0 disables; default: 8)")
    sp.add_argument("--out", default=None,
                    help="write the exposition to PATH instead of stdout")

    sp = sub.add_parser(
        "bench-diff",
        help="diff fresh BENCH_*.json against committed baselines (regression gate)",
    )
    sp.add_argument("names", nargs="*", metavar="NAME",
                    help="experiments to diff, e.g. KERNEL SHARD (default: every "
                         "BENCH_*.json present in both directories)")
    sp.add_argument("--baseline", default=".",
                    help="directory holding the committed baselines (default: .)")
    sp.add_argument("--fresh", default=None,
                    help="directory holding the fresh run's JSON "
                         "(default: $REPRO_BENCH_DIR, else .)")
    sp.add_argument("--history", default=None,
                    help="BENCH_HISTORY.jsonl path for noise-aware thresholds "
                         "(default: resolved next to the fresh files)")
    sp.add_argument("--no-history", action="store_true",
                    help="disable noise widening from the history ledger")
    sp.add_argument("--record", action="store_true",
                    help="append the fresh payloads to the history ledger after diffing")
    sp.add_argument("--time-tolerance", type=float, default=0.5,
                    help="relative tolerance for wall-clock metrics (default: 0.5)")
    sp.add_argument("--ratio-tolerance", type=float, default=0.25,
                    help="relative tolerance for ratio/volume metrics (default: 0.25)")
    sp.add_argument("--absolute", default="auto", choices=["auto", "always", "never"],
                    help="gate wall-clock metrics: auto = only when baseline and fresh "
                         "are certified same-host (default)")
    sp.add_argument("--verbose", action="store_true",
                    help="show every compared metric, not just regressions")

    sp = sub.add_parser(
        "slo-check",
        help="evaluate an SLO file against a live smoke run (exit 1 on breach)",
    )
    sp.add_argument("slo", nargs="?", default="slo.toml",
                    help="SLO spec file (TOML; default: slo.toml)")
    sp.add_argument("--graph", default="ci-ws",
                    help="dataset for the smoke run (default: ci-ws)")
    sp.add_argument("--stepper", default="delta",
                    help="stepper spec for the smoke run (default: delta)")
    sp.add_argument("--weights", default="unit")
    sp.add_argument("--queries", type=int, default=32,
                    help="queries served by the smoke run (default: 32)")
    sp.add_argument("--slow-ms", type=float, default=25.0,
                    help="slow-query-log threshold for the smoke run (default: 25)")
    sp.add_argument("--slow-log-out", metavar="PATH", default=None,
                    help="write the smoke run's slow-query log as JSONL "
                         "(the CI artifact)")
    sp.add_argument("--metrics-out", metavar="PATH", default=None,
                    help="write the post-evaluation OpenMetrics exposition "
                         "(includes the slo.* verdict gauges)")
    sp.add_argument("--inject-latency-ms", type=float, default=None,
                    help="test hook: record one synthetic observation into every "
                         "SLO metric before evaluating (forces a breach)")

    sp = sub.add_parser("serve-bench", help="run the SERVE throughput experiment")
    sp.add_argument("--suite", default="ci", choices=["ci", "paper"], help="graph suite (default: ci)")
    sp.add_argument("--queries", type=int, default=64, help="queries per graph (default: 64)")
    sp.add_argument("--repeats", type=int, default=3)
    add_stepper_flags(sp)

    sp = sub.add_parser("step-bench", help="run the STEP stepping-portfolio experiment")
    sp.add_argument("--suite", default="ci", choices=["ci", "paper"], help="graph suite (default: ci)")
    sp.add_argument("--repeats", type=int, default=3)
    sp.add_argument("--smoke", action="store_true",
                    help="fast CI mode: two smallest suite graphs, one repeat")

    sp = sub.add_parser("shard-bench", help="run the SHARD partition-parallel experiment")
    sp.add_argument("--suite", default="ci", choices=["ci", "paper"], help="graph suite (default: ci)")
    sp.add_argument("--shards", type=int, nargs="+", default=[2, 4],
                    help="shard counts to measure (default: 2 4)")
    sp.add_argument("--partitioners", nargs="+", default=None,
                    help="partitioners to measure (default: all registered)")
    sp.add_argument("--transport", default="threads",
                    help="shard transport: inline, threads, or threads:N (default: threads)")
    sp.add_argument("--repeats", type=int, default=3)
    sp.add_argument("--smoke", action="store_true",
                    help="fast CI mode: two smallest suite graphs, one repeat")

    sp = sub.add_parser("kernel-bench", help="run the KERNEL relaxation-kernel experiment")
    sp.add_argument("--suite", default="ci", choices=["ci", "paper"], help="graph suite (default: ci)")
    sp.add_argument("--repeats", type=int, default=5)
    sp.add_argument("--smoke", action="store_true",
                    help="fast CI gate: two smallest suite graphs; exits non-zero if "
                         "verification fails or the scatter kernel trails seed by >10%%")

    sp = sub.add_parser("steppers", help="list the stepping-algorithm registry")
    sp.add_argument("--list", action="store_true",
                    help="enumerate registered steppers and Δ strategies (the default mode)")
    sp.add_argument("--probe", metavar="GRAPH", default=None,
                    help="race the default candidates on a dataset and print the tuner report")
    sp.add_argument("--weights", default="unit", help="weight mode for --probe")

    sp = sub.add_parser("mutate-bench", help="run the DYN incremental-repair experiment")
    sp.add_argument("--suite", default="ci", choices=["ci", "paper"], help="graph suite (default: ci)")
    sp.add_argument("--fractions", type=float, nargs="+", default=[0.002, 0.01, 0.05],
                    help="update-batch sizes as fractions of the edge count")
    sp.add_argument("--repeats", type=int, default=3)

    sp = sub.add_parser("suite", help="list dataset suites with statistics")
    sp.add_argument("--suite", default="ci", choices=["ci", "paper"])

    sub.add_parser("translate", help="show the IR translation pipeline and fusion report")

    sp = sub.add_parser("lint", help="run the repo's static-analysis rules")
    sp.add_argument("--select", metavar="RULE", action="append", default=None,
                    help="run only this rule (repeatable; default: all rules)")
    sp.add_argument("--format", dest="fmt", default="text", choices=["text", "json"],
                    help="findings output format (default: text)")
    sp.add_argument("--list", action="store_true",
                    help="list the registered rules and exit")

    sp = sub.add_parser(
        "chaos",
        help="run the serving-tier breaker drill: degrade, trip, shed, "
             "probe, recover (exit 1 on any failed check)",
    )
    sp.add_argument("--metrics-out", metavar="PATH", default=None,
                    help="write the drill's OpenMetrics exposition "
                         "(degraded answers, shed mutations, breaker state)")
    return p


def _cmd_fig(args) -> int:
    from .bench.registry import run_experiment

    exp = {"fig3": "FIG3", "fig4": "FIG4", "profile": "SEC6C"}[args.command]
    kwargs = {}
    if args.command == "fig3":
        kwargs["repeats"] = args.repeats
    if args.command == "fig4":
        kwargs["simulate"] = not args.real
        kwargs["threads"] = tuple(args.threads)
    print(run_experiment(exp, suite=args.suite, **kwargs))
    return 0


def _cmd_run(args) -> int:
    from .bench.workloads import workload_for
    from .sssp import check_against_dijkstra
    from .stepping import best_stepper, resolve_stepper_spec

    wl = workload_for(args.graph, weights=args.weights)
    source = args.source if args.source is not None else wl.source
    if args.stepper:
        spec = args.stepper  # a pin beats the tuner
    elif args.auto:
        spec = best_stepper(wl.graph)
        print(f"{'auto-tuned':14s} {spec}")
    else:
        spec = "delta"
    stepper, kwargs = resolve_stepper_spec(spec)
    if args.delta is not None:
        # only steppers that advertise a Δ knob take one
        if "delta" in stepper.default_params(wl.graph):
            kwargs["delta"] = args.delta
        else:
            print(f"warning: stepper {stepper.name!r} takes no delta; --delta ignored",
                  file=sys.stderr)
    rec = None
    if args.trace:
        from .obs import Recorder

        rec = kwargs["recorder"] = Recorder()
    result = stepper.solve(wl.graph, source, **kwargs)
    for k, v in result.summary().items():
        print(f"{k:14s} {v}")
    if args.verify:
        check_against_dijkstra(wl.graph, result)
        print("verified        OK (matches Dijkstra)")
    if rec is not None:
        print(f"{'trace':14s} wrote {rec.write_trace(args.trace)} ({len(rec.trace)} events)")
    return 0


def _cmd_query(args) -> int:
    from .bench.workloads import workload_for
    from .service import LandmarkIndex, QueryService

    wl = workload_for(args.graph, weights=args.weights)
    source = args.source if args.source is not None else wl.source
    landmarks = LandmarkIndex.build(wl.graph, args.landmarks) if args.landmarks else None
    rec = None
    if args.trace:
        from .obs import Recorder

        rec = Recorder()
    svc = QueryService(
        wl.graph, weight_mode=args.weights, landmarks=landmarks,
        stepper=args.stepper, autotune=args.auto, recorder=rec,
    )
    for _ in range(max(args.repeat, 1)):
        resp = svc.query(source, args.target)
        origin = "cache" if resp.from_cache else "batch solve"
        if args.target is not None:
            print(f"d({source} -> {args.target}) = {resp.distance:g}   "
                  f"[{origin}, {resp.latency_ms:.2f} ms]")
        else:
            import numpy as np

            reached = int(np.isfinite(resp.distances).sum())
            finite = resp.distances[np.isfinite(resp.distances)]
            print(f"d({source} -> *): reached {reached}/{wl.graph.num_vertices}, "
                  f"max {finite.max():g}, mean {finite.mean():.3f}   "
                  f"[{origin}, {resp.latency_ms:.2f} ms]")
    if landmarks is not None and args.target is not None:
        est = landmarks.estimate(source, args.target)
        print(f"landmark bounds: [{est.lower:g}, {est.upper:g}] "
              f"({landmarks.num_landmarks} landmarks)")
    stats = svc.stats()
    print(f"service: {stats.queries_served} served, "
          f"cache hit rate {stats.cache.hit_rate:.0%}, "
          f"p50 {stats.latency_p50_ms:.2f} ms")
    if rec is not None:
        print(f"trace: wrote {rec.write_trace(args.trace)} ({len(rec.trace)} events)")
    return 0


def _cmd_trace(args) -> int:
    if args.flight_smoke:
        return _flight_overhead_smoke()

    from collections import Counter

    _wl, rec, _slow_log = _recorded_run(
        args.graph, args.stepper, args.weights, args.queries, sys.stdout
    )
    path = rec.write_trace(args.out)
    counts = Counter(s["name"] for s in rec.trace.spans())
    print(f"wrote {path} ({len(rec.trace)} events)")
    for name in sorted(counts):
        print(f"  {counts[name]:6d}  {name}")
    snap = rec.metrics.snapshot()
    if snap["counters"] or snap["histograms"]:
        print("metrics:")
        for name, v in sorted(snap["counters"].items()):
            print(f"  {name} = {v}")
        for name, h in sorted(snap["histograms"].items()):
            print(f"  {name}: count={h['count']} p50={h['p50']:.3f} "
                  f"p90={h['p90']:.3f} p99={h['p99']:.3f}")
    return 0


def _flight_overhead_smoke() -> int:
    """The CI gate behind ``repro trace --flight-smoke``.

    Times the end-to-end serving path (construct a service, solve +
    answer 8 point queries) with no recorder vs a live
    :meth:`Recorder.flight` recorder — the always-on production
    configuration, spans and histograms included — and fails if leaving
    the flight recorder on costs more than 5%.  The two sides alternate
    rounds and each keeps its best, so host drift cancels out.
    """
    from .bench.timing import time_callable
    from .bench.workloads import suite_workloads
    from .obs import Recorder
    from .service import QueryService

    gate = 0.05
    worst = 0.0
    # the two *largest* ci workloads: the serving tier's unit of work is
    # a batch solve, and on the sub-ms toy graphs the span count (fixed
    # per wave) dwarfs the solve it measures — a share no production
    # graph exhibits
    for wl in suite_workloads("ci")[-2:]:
        def serve(recorder) -> None:
            svc = QueryService(wl.graph, recorder=recorder)
            n = wl.graph.num_vertices
            for i in range(8):
                svc.query((wl.source + i // 2) % n)

        fn_base = lambda: serve(None)
        fn_flight = lambda: serve(Recorder.flight(capacity=2048))
        best_base = best_flight = float("inf")
        for round_idx in range(8):
            best_base = min(
                best_base,
                time_callable(fn_base, repeats=3, warmup=1, min_total_seconds=0.05).best,
            )
            best_flight = min(
                best_flight,
                time_callable(fn_flight, repeats=3, warmup=1, min_total_seconds=0.05).best,
            )
            if round_idx >= 2 and best_flight / best_base - 1.0 <= gate:
                break
        overhead = best_flight / best_base - 1.0
        worst = max(worst, overhead)
        print(f"{wl.name:10s} no-recorder {best_base * 1e3:8.3f} ms   "
              f"flight-enabled {best_flight * 1e3:8.3f} ms   overhead {overhead:+.2%}")
    if worst > gate:
        print(f"flight overhead smoke FAILED: worst enabled-path overhead "
              f"{worst:+.2%} exceeds {gate:.0%}", file=sys.stderr)
        return 1
    print(f"flight overhead smoke OK: worst enabled-path overhead {worst:+.2%} "
          f"(gate {gate:.0%})")
    return 0


def _recorded_run(graph: str, stepper: str, weights: str, queries: int, out,
                  slow_ms: float | None = None, flight: bool = False):
    """Solve + optionally serve queries with a live Recorder (the shared
    setup behind ``trace``, ``report``, ``metrics``, and ``slo-check``);
    run info goes to *out*.  A run that serves queries then applies one
    small reweight batch through :meth:`QueryService.mutate`, so the
    mutation path (``service.mutate_ms``) is recorded too.  *flight*
    bounds the trace (:meth:`Recorder.flight`); *slow_ms* arms the
    service's slow-query log (returned as the third element, ``None``
    when unarmed or no queries ran)."""
    from .bench.workloads import workload_for
    from .obs import Recorder
    from .stepping import solve_with

    wl = workload_for(graph, weights=weights)
    rec = Recorder.flight() if flight else Recorder()
    result = solve_with(stepper, wl.graph, wl.source, recorder=rec)
    print(f"solved {wl.name} with {stepper}: "
          f"{result.phases} phases, {result.relaxations} relaxations", file=out)
    slow_log = None
    if queries > 0:
        from .service import QueryService

        svc = QueryService(wl.graph, weight_mode=weights, recorder=rec,
                           slow_query_ms=slow_ms)
        n = wl.graph.num_vertices
        for i in range(queries):
            # every source is asked twice, so the second round hits the cache
            svc.query((wl.source + i // 2) % n)
        stats = svc.stats()
        print(f"served {stats.queries_served} queries, "
              f"cache hit rate {stats.cache.hit_rate:.0%}", file=out)
        # double the weight of the source's first edge: a one-update batch
        nbrs, ws = wl.graph.neighbors(wl.source)
        report = svc.mutate(reweights=([wl.source], [nbrs[0]], [2.0 * ws[0]]))
        print(f"mutated {report.applied.num_updates} edge weight(s), "
              f"repaired {report.repaired_entries} cached entries", file=out)
        slow_log = svc.slow_query_log
    return wl, rec, slow_log


def _cmd_report(args) -> int:
    from .obs import build_report, render_html, render_markdown

    # run info must not interleave with a report printed to stdout
    info = sys.stdout if args.out else sys.stderr
    if args.trace:
        title = args.title or f"repro run report — {args.trace}"
        report = build_report(args.trace, title=title,
                              request_id=args.request, slow_queries=args.slow_log)
    else:
        wl, rec, slow_log = _recorded_run(
            args.graph, args.stepper, args.weights, args.queries, info,
            slow_ms=args.slow_ms,
        )
        title = args.title or f"repro run report — {wl.name} · {args.stepper}"
        report = build_report(rec, title=title, request_id=args.request,
                              slow_queries=args.slow_log or slow_log)
    doc = render_html(report) if args.fmt == "html" else render_markdown(report)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(doc)
        print(f"wrote {args.out} ({report.span_count} spans, "
              f"{len(report.sections)} sections)", file=info)
    else:
        print(doc, end="")
    return 0


def _cmd_metrics(args) -> int:
    from .obs import render_openmetrics

    info = sys.stdout if args.out else sys.stderr
    _wl, rec, _slow_log = _recorded_run(
        args.graph, args.stepper, args.weights, args.queries, info
    )
    text = render_openmetrics(rec)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote {args.out} ({len(text.splitlines())} lines)", file=info)
    else:
        print(text, end="")
    return 0


def _cmd_bench_diff(args) -> int:
    from pathlib import Path

    from .bench.history import (
        BenchHistory,
        diff_payloads,
        history_path,
        load_bench_json,
        render_diff,
    )

    baseline_dir = Path(args.baseline)
    fresh_dir = Path(args.fresh) if args.fresh else Path(
        os.environ.get("REPRO_BENCH_DIR", ".")
    )
    if args.names:
        names = [n.upper() for n in args.names]
    else:
        # every experiment present on both sides
        names = sorted(
            p.stem.removeprefix("BENCH_")
            for p in baseline_dir.glob("BENCH_*.json")
            if (fresh_dir / p.name).exists()
        )
        if not names:
            print(f"bench-diff: no BENCH_*.json present in both {baseline_dir} "
                  f"and {fresh_dir}", file=sys.stderr)
            return 2

    history = None
    if not args.no_history:
        hp = history_path(args.history) if args.history else fresh_dir / "BENCH_HISTORY.jsonl"
        if args.history or hp.exists() or args.record:
            history = BenchHistory(hp)

    failed = False
    for name in names:
        filename = f"BENCH_{name}.json"
        try:
            baseline = load_bench_json(baseline_dir / filename)
            fresh = load_bench_json(fresh_dir / filename)
        except (OSError, ValueError) as exc:
            print(f"bench-diff: {exc}", file=sys.stderr)
            return 2
        result = diff_payloads(
            baseline, fresh, history=history,
            time_tolerance=args.time_tolerance,
            ratio_tolerance=args.ratio_tolerance,
            absolute=args.absolute,
        )
        print(render_diff(result, verbose=args.verbose))
        if args.record and history is not None:
            history.append(fresh)
            print(f"  recorded to {history.path}")
        failed = failed or not result.ok
    return 1 if failed else 0


def _cmd_slo_check(args) -> int:
    from .obs import (
        evaluate,
        export_slo_gauges,
        load_slo_path,
        render_openmetrics,
        render_slo_text,
    )

    try:
        specs = load_slo_path(args.slo)
    except (OSError, ValueError, KeyError) as exc:
        print(f"slo-check: cannot load {args.slo}: {exc}", file=sys.stderr)
        return 2
    print(f"{len(specs)} SLO(s) from {args.slo}: "
          + ", ".join(s.name for s in specs))

    # live smoke: a flight-recorded solve + serve round, evaluated in place
    wl, rec, slow_log = _recorded_run(
        args.graph, args.stepper, args.weights, args.queries, sys.stdout,
        slow_ms=args.slow_ms, flight=True,
    )
    if args.inject_latency_ms is not None and rec:
        for spec in specs:
            rec.observe(spec.metric, args.inject_latency_ms)
        print(f"injected one {args.inject_latency_ms:g} ms observation into "
              f"{len(specs)} SLO metric(s)")
    result = evaluate(specs, rec.metrics)
    export_slo_gauges(result, rec.metrics)
    print(render_slo_text(result))
    if args.slow_log_out and slow_log is not None:
        print(f"wrote {slow_log.write(args.slow_log_out)} "
              f"({len(slow_log)} slow-query entries, {slow_log.total} total)")
    if args.metrics_out:
        with open(args.metrics_out, "w") as fh:
            fh.write(render_openmetrics(rec))
        print(f"wrote {args.metrics_out}")
    return 0 if result.ok else 1


def _cmd_serve_bench(args) -> int:
    from .bench.registry import render_experiment, run_experiment_rows, write_bench_json
    from .bench.service_bench import service_throughput_headline

    rows = run_experiment_rows(
        "SERVE", suite=args.suite, num_queries=args.queries, repeats=args.repeats,
        stepper=args.stepper, autotune=args.auto,
    )
    print(render_experiment("SERVE", rows))
    headline = service_throughput_headline(rows)
    print(f"wrote {write_bench_json('SERVE', rows, headline=headline)}")
    return 0


def _cmd_step_bench(args) -> int:
    from .bench.registry import EXPERIMENTS, write_bench_json
    from .bench.step_bench import render_stepping_portfolio, stepping_portfolio_series
    from .bench.workloads import suite_workloads

    workloads = suite_workloads(args.suite)
    repeats = args.repeats
    if args.smoke:
        workloads = workloads[:2]
        repeats = 1
    rows = stepping_portfolio_series(workloads, repeats=repeats)
    print(render_stepping_portfolio(rows))
    print(f"claim: {EXPERIMENTS['STEP'].claim}")
    print(f"wrote {write_bench_json('STEP', rows)}")
    return 0


def _cmd_shard_bench(args) -> int:
    from .bench.registry import EXPERIMENTS, write_bench_json
    from .bench.shard_bench import render_sharded_scaling, sharded_scaling_series
    from .bench.workloads import suite_workloads

    workloads = suite_workloads(args.suite)
    repeats = args.repeats
    if args.smoke:
        workloads = workloads[:2]
        repeats = 1
    rows = sharded_scaling_series(
        workloads,
        shard_counts=tuple(args.shards),
        partitioners=tuple(args.partitioners) if args.partitioners else None,
        transport=args.transport,
        repeats=repeats,
    )
    print(render_sharded_scaling(rows))
    print(f"claim: {EXPERIMENTS['SHARD'].claim}")
    print(f"wrote {write_bench_json('SHARD', rows)}")
    return 0


def _cmd_kernel_bench(args) -> int:
    from .bench.kernel_bench import (
        SMOKE_TOLERANCE,
        kernel_bench_headline,
        kernel_bench_series,
        render_kernel_bench,
    )
    from .bench.registry import EXPERIMENTS, write_bench_json
    from .bench.workloads import suite_workloads

    workloads = suite_workloads(args.suite)
    repeats = args.repeats
    if args.smoke:
        workloads = workloads[:2]
    rows = kernel_bench_series(workloads, repeats=repeats)
    headline = kernel_bench_headline(rows)
    print(render_kernel_bench(rows))
    print(f"claim: {EXPERIMENTS['KERNEL'].claim}")
    print(f"wrote {write_bench_json('KERNEL', rows, headline=headline)}")
    if args.smoke and not headline["smoke_ok"]:
        print(
            f"KERNEL smoke gate FAILED: verification "
            f"{'ok' if headline['all_verified'] else 'FAILED'}, scatter worst "
            f"{headline['scatter_worst_speedup']:.2f}x vs seed "
            f"(gate: >= {SMOKE_TOLERANCE:.2f}x)",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_steppers(args) -> int:
    from .bench.reporting import format_table
    from .sssp.delta import DELTA_STRATEGIES
    from .stepping import STEPPERS

    if args.probe is not None:
        from .bench.workloads import workload_for
        from .stepping import AutoTuner

        wl = workload_for(args.probe, weights=args.weights)
        report = AutoTuner().probe(wl.graph)
        print(f"Auto-tuner probe of {wl.name} "
              f"(sources {list(report.sources)}, epoch {report.epoch}):\n")
        rows = [
            {"stepper": r.stepper, "ms_per_source": r.ms_per_source,
             "pick": "*" if r.stepper == report.best else ""}
            for r in sorted(report.rows, key=lambda r: r.ms_per_source)
        ]
        print(format_table(rows, floatfmt=".3f"))
        print(f"\nbest_stepper -> {report.best}")
        return 0

    rows = [
        {"name": s.name, "kind": s.kind,
         "resolve": "yes" if s.supports_resolve else "no",
         "description": s.description}
        for s in STEPPERS.values()
    ]
    print("Stepping-algorithm registry (repro.stepping.STEPPERS):\n")
    print(format_table(rows))
    print("\nΔ-selection strategies (repro.sssp.delta.DELTA_STRATEGIES): "
          + ", ".join(["auto", *DELTA_STRATEGIES]))
    return 0


def _cmd_mutate_bench(args) -> int:
    from .bench.mutate_bench import mutation_repair_headline
    from .bench.registry import render_experiment, run_experiment_rows, write_bench_json

    rows = run_experiment_rows(
        "DYN", suite=args.suite, fractions=tuple(args.fractions), repeats=args.repeats
    )
    print(render_experiment("DYN", rows))
    headline = mutation_repair_headline(rows)
    print(f"wrote {write_bench_json('DYN', rows, headline=headline)}")
    if not headline["all_verified"]:
        print("DYN: a repair diverged from recompute (see the verified column)",
              file=sys.stderr)
        return 1
    return 0


def _cmd_suite(args) -> int:
    from .bench.reporting import format_table
    from .graphs import datasets
    from .graphs.stats import graph_stats

    rows = [graph_stats(datasets.load(name)).as_row() for name in datasets.suite_names(args.suite)]
    print(format_table(rows))
    return 0


def _cmd_translate(_args) -> int:
    from .ir import count_calls, delta_stepping_program, fuse_program, lower_program

    lowered = lower_program(delta_stepping_program())
    fused, report = fuse_program(lowered)
    print("Translation pipeline: vertex/edge patterns -> IR -> GraphBLAS calls")
    print(f"  static GraphBLAS calls (unfused): {report.calls_before}")
    print(f"  static GraphBLAS calls (fused):   {report.calls_after}")
    print(f"  filter fusions applied:           {report.filters_fused}")
    print(f"  Hadamard+vxm fusions applied:     {report.masked_vxm_fused}")

    def show(calls, indent=2):
        from .ir import LoweredWhile

        for c in calls:
            if isinstance(c, LoweredWhile):
                print(" " * indent + f"while nvals({c.cond_name}) != 0:")
                show(c.pre, indent + 4)
                print(" " * (indent + 2) + "-- body --")
                show(c.body, indent + 4)
            else:
                print(" " * indent + repr(c))

    print("\nFused call tree:")
    show(fused.calls)
    return 0


def _cmd_lint(args) -> int:
    from .analysis import RULES, format_findings, run_lint

    if args.list:
        width = max(len(name) for name in RULES)
        for name, desc in sorted(RULES.items()):
            print(f"{name:{width}s}  {desc}")
        return 0
    try:
        findings = run_lint(select=args.select)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(format_findings(findings, fmt=args.fmt))
    return 1 if findings else 0


def _cmd_chaos(args) -> int:
    from .faults.harness import run_breaker_drill
    from .obs import render_openmetrics

    drill = run_breaker_drill()
    failed_checks = [k for k, v in drill["checks"].items() if not v]
    print(
        f"breaker drill [{drill['workload']}]: "
        + ("all checks passed" if drill["ok"]
           else f"FAILED: {', '.join(failed_checks)}")
        + f" (degraded={drill['degraded_answers']}, "
          f"shed={drill['mutations_shed']}, "
          f"trips={drill['breaker']['trips']})"
    )
    if args.metrics_out:
        text = render_openmetrics(drill["metrics"])
        with open(args.metrics_out, "w") as fh:
            fh.write(text)
        print(f"wrote {args.metrics_out} ({len(text.splitlines())} lines)")
    if not drill["ok"]:
        print("\nCHAOS FAIL: breaker drill", file=sys.stderr)
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "fig3": _cmd_fig,
        "fig4": _cmd_fig,
        "profile": _cmd_fig,
        "run": _cmd_run,
        "query": _cmd_query,
        "trace": _cmd_trace,
        "report": _cmd_report,
        "metrics": _cmd_metrics,
        "bench-diff": _cmd_bench_diff,
        "slo-check": _cmd_slo_check,
        "serve-bench": _cmd_serve_bench,
        "mutate-bench": _cmd_mutate_bench,
        "step-bench": _cmd_step_bench,
        "shard-bench": _cmd_shard_bench,
        "kernel-bench": _cmd_kernel_bench,
        "steppers": _cmd_steppers,
        "suite": _cmd_suite,
        "translate": _cmd_translate,
        "lint": _cmd_lint,
        "chaos": _cmd_chaos,
    }[args.command]
    return handler(args)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
