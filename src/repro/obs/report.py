"""Self-contained run reports from a recorded run (markdown / HTML).

A Chrome trace opens in Perfetto; a metrics snapshot is a dict — neither
answers "what did this run *do*" in a form you can paste into a PR or
attach to a CI artifact.  This module renders a :class:`Recorder` (or a
saved Chrome trace JSON) into one document:

- **time attribution** — every span name with call count, total and
  *self* time (total minus child spans), and share of wall clock;
- **the span tree** — the nesting reconstructed per thread from the
  flat event list, so a sharded run reads as superstep → shard-step /
  exchange without opening a trace viewer;
- **the per-superstep exchange ledger** — the sharded stepper's
  ``exchange`` spans carry the posted/carried/applied/bytes deltas of
  each flush round; the report tabulates them in superstep order (the
  wire profile a real transport would have to absorb);
- **bucket occupancy and wave density** — the fused solver's ``bucket``
  spans (frontier size, phases, settled) and every stepper's
  ``relax-wave`` spans (wave sizes and relaxation counts per kernel);
- **metrics summaries** — counters, gauges, and the p50/p90/p99
  histogram trio from the registry snapshot.

Everything is computed from the span dicts
:meth:`~repro.obs.trace.TraceRecorder.spans` returns (or their Chrome
export, via :func:`spans_from_chrome` / :func:`load_trace`), so a saved
``trace.json`` renders the same report as a live recorder — minus the
metrics sections, which only the recorder carries.

Like the rest of :mod:`repro.obs` this module is stdlib-only and part
of the ``mypy --strict`` typing gate.  ``repro report`` is the CLI
front end.
"""

from __future__ import annotations

import html
import json
import os
from dataclasses import dataclass, field
from math import isnan
from typing import Any, Mapping, Sequence, Union

from .flight import SlowQueryLog
from .recorder import Recorder
from .trace import TraceRecorder

__all__ = [
    "SpanNode",
    "ReportSection",
    "RunReport",
    "spans_from_chrome",
    "load_trace",
    "load_slow_queries",
    "filter_spans_by_request",
    "build_span_tree",
    "stage_attribution",
    "build_report",
    "render_markdown",
    "render_html",
]

#: one flat span record: the dict shape ``TraceRecorder.spans()`` emits
SpanDict = dict[str, Any]

#: what :func:`build_report` accepts as its trace source
TraceSource = Union[
    Recorder, TraceRecorder, Mapping[str, Any], str, "os.PathLike[str]", Sequence[SpanDict]
]

#: row cap for the per-item tables (bucket / superstep / ledger); the
#: report is a summary, not a second trace file
MAX_TABLE_ROWS = 40

#: line cap for the rendered span tree
MAX_TREE_LINES = 80


@dataclass
class SpanNode:
    """One span with its children re-nested from the flat event list."""

    name: str
    ts_us: float
    dur_us: float
    tid: int
    args: dict[str, Any]
    children: list["SpanNode"] = field(default_factory=list)

    @property
    def end_us(self) -> float:
        return self.ts_us + self.dur_us

    @property
    def self_us(self) -> float:
        """Duration not covered by child spans (clamped at 0)."""
        return max(0.0, self.dur_us - sum(c.dur_us for c in self.children))


@dataclass
class ReportSection:
    """One rendered section: prose lines, an optional table, optional
    preformatted code lines.  Table cells are already strings — the
    renderers only lay them out."""

    title: str
    lines: list[str] = field(default_factory=list)
    table: list[dict[str, str]] | None = None
    code: list[str] | None = None


@dataclass
class RunReport:
    """The structured report :func:`build_report` produces; feed it to
    :func:`render_markdown` or :func:`render_html`."""

    title: str
    sections: list[ReportSection] = field(default_factory=list)
    span_count: int = 0
    wall_ms: float = 0.0


# --------------------------------------------------------------------------
# trace loading
# --------------------------------------------------------------------------


def spans_from_chrome(doc: Mapping[str, Any]) -> list[SpanDict]:
    """The complete (``"X"``) events of a Chrome trace document as the
    span dicts the report builder consumes."""
    spans: list[SpanDict] = []
    events = doc.get("traceEvents", [])
    for ev in events:
        if not isinstance(ev, Mapping) or ev.get("ph") != "X":
            continue
        args = ev.get("args", {})
        spans.append(
            {
                "name": str(ev.get("name", "?")),
                "ts_us": float(ev.get("ts", 0.0)),
                "dur_us": float(ev.get("dur", 0.0)),
                "tid": int(ev.get("tid", 0)),
                "args": dict(args) if isinstance(args, Mapping) else {},
            }
        )
    return spans


def load_trace(path: "str | os.PathLike[str]") -> list[SpanDict]:
    """Load a saved Chrome trace JSON (``Recorder.write_trace`` output)
    as span dicts."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"{path!s} is not a Chrome trace document")
    return spans_from_chrome(doc)


def _resolve_spans(source: TraceSource) -> list[SpanDict]:
    if isinstance(source, Recorder):
        return source.trace.spans()
    if isinstance(source, TraceRecorder):
        return source.spans()
    if isinstance(source, Mapping):
        return spans_from_chrome(source)
    if isinstance(source, (str, os.PathLike)):
        return load_trace(source)
    return [dict(s) for s in source]


def filter_spans_by_request(
    spans: Sequence[SpanDict], request_id: str
) -> list[SpanDict]:
    """The spans belonging to one request.

    The serving tier stamps every span of a drain round with the round's
    (comma-joined, when batched) request ids, so a span belongs to
    *request_id* when the id is a member of its ``request_id`` arg.
    Works identically on live recorder spans and reloaded Chrome traces
    — this is the round trip ``repro report --request`` rides on.
    """
    out: list[SpanDict] = []
    for s in spans:
        rid = dict(s.get("args", {})).get("request_id")
        if rid is not None and request_id in str(rid).split(","):
            out.append(s)
    return out


#: what :func:`build_report` accepts as its slow-query source: the live
#: log, already-loaded entries, or a saved JSONL path
SlowQuerySource = Union[
    SlowQueryLog, Sequence[Mapping[str, Any]], str, "os.PathLike[str]"
]


def load_slow_queries(path: "str | os.PathLike[str]") -> list[dict[str, Any]]:
    """Load a saved slow-query log (``SlowQueryLog.write`` JSONL)."""
    entries: list[dict[str, Any]] = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                entries.append(json.loads(line))
    return entries


def _resolve_slow_queries(source: SlowQuerySource) -> list[dict[str, Any]]:
    if isinstance(source, SlowQueryLog):
        return source.entries()
    if isinstance(source, (str, os.PathLike)):
        return load_slow_queries(source)
    return [dict(e) for e in source]


# --------------------------------------------------------------------------
# span tree + attribution
# --------------------------------------------------------------------------


def build_span_tree(spans: Sequence[SpanDict]) -> list[SpanNode]:
    """Re-nest flat spans into per-thread trees.

    Within one thread a span is a child of the most recent span whose
    interval still covers its start — the standard stack reconstruction
    for complete-event traces.  Roots come back ordered by (thread,
    start time).
    """
    by_tid: dict[int, list[SpanNode]] = {}
    for s in spans:
        node = SpanNode(
            name=str(s.get("name", "?")),
            ts_us=float(s.get("ts_us", 0.0)),
            dur_us=float(s.get("dur_us", 0.0)),
            tid=int(s.get("tid", 0)),
            args=dict(s.get("args", {})),
        )
        by_tid.setdefault(node.tid, []).append(node)
    roots: list[SpanNode] = []
    for tid in sorted(by_tid):
        # enclosing spans first: earlier start wins, longer duration
        # breaks ties (a parent that starts with its child sorts first)
        ordered = sorted(by_tid[tid], key=lambda n: (n.ts_us, -n.dur_us))
        stack: list[SpanNode] = []
        for node in ordered:
            while stack and node.ts_us >= stack[-1].end_us - 1e-9:
                stack.pop()
            if stack:
                stack[-1].children.append(node)
            else:
                roots.append(node)
            stack.append(node)
    return roots


def _walk(nodes: Sequence[SpanNode]) -> list[SpanNode]:
    out: list[SpanNode] = []
    todo = list(nodes)
    while todo:
        n = todo.pop()
        out.append(n)
        todo.extend(n.children)
    return out


def stage_attribution(roots: Sequence[SpanNode]) -> list[dict[str, Any]]:
    """Per span name: count, total/self/max time — the §VI.C question
    ("where does the time go?") answered from the timeline.

    ``self`` time excludes child spans, so summing the column over all
    names cannot double-count nested stages.
    """
    agg: dict[str, dict[str, float]] = {}
    for node in _walk(roots):
        row = agg.setdefault(
            node.name, {"count": 0.0, "total_us": 0.0, "self_us": 0.0, "max_us": 0.0}
        )
        row["count"] += 1
        row["total_us"] += node.dur_us
        row["self_us"] += node.self_us
        row["max_us"] = max(row["max_us"], node.dur_us)
    rows = [
        {
            "name": name,
            "count": int(r["count"]),
            "total_ms": r["total_us"] / 1e3,
            "self_ms": r["self_us"] / 1e3,
            "mean_ms": r["total_us"] / r["count"] / 1e3,
            "max_ms": r["max_us"] / 1e3,
        }
        for name, r in agg.items()
    ]
    rows.sort(key=lambda r: float(r["self_ms"]), reverse=True)
    return rows


# --------------------------------------------------------------------------
# formatting helpers
# --------------------------------------------------------------------------


def _f(value: float, digits: int = 3) -> str:
    if isnan(value):
        return "NaN"
    return f"{value:.{digits}f}"


def _arg_int(args: Mapping[str, Any], key: str, default: int = 0) -> int:
    value = args.get(key, default)
    try:
        return int(value)
    except (TypeError, ValueError):
        return default


def _pct(sorted_values: Sequence[float], q: float) -> float:
    """Exact percentile over an already-sorted sample (nearest-rank)."""
    if not sorted_values:
        return float("nan")
    rank = max(1, -(-int(q * len(sorted_values)) // 100))  # ceil(q*n/100)
    return sorted_values[min(rank, len(sorted_values)) - 1]


def _tree_lines(roots: Sequence[SpanNode], limit: int = MAX_TREE_LINES) -> list[str]:
    lines: list[str] = []
    truncated = 0

    def emit(node: SpanNode, depth: int) -> None:
        nonlocal truncated
        if len(lines) >= limit:
            truncated += 1 + _count(node.children)
            return
        args = ", ".join(f"{k}={v}" for k, v in node.args.items())
        suffix = f"  [{args}]" if args else ""
        lines.append(f"{'  ' * depth}{node.name}  {node.dur_us / 1e3:.3f} ms{suffix}")
        for child in node.children:
            emit(child, depth + 1)

    def _count(nodes: Sequence[SpanNode]) -> int:
        return sum(1 + _count(n.children) for n in nodes)

    for root in roots:
        emit(root, 0)
    if truncated:
        lines.append(f"... ({truncated} more spans)")
    return lines


# --------------------------------------------------------------------------
# the report builder
# --------------------------------------------------------------------------


def build_report(
    source: TraceSource,
    metrics: Mapping[str, Any] | None = None,
    title: str = "repro run report",
    request_id: str | None = None,
    slow_queries: SlowQuerySource | None = None,
) -> RunReport:
    """Assemble the structured report.

    *source* is a :class:`Recorder`, a :class:`TraceRecorder`, a Chrome
    trace document (dict) or path, or an already-flat span list.  When a
    :class:`Recorder` is passed and *metrics* is omitted, its own
    registry snapshot fills the metrics sections.

    *request_id* narrows the whole report to one request's spans (see
    :func:`filter_spans_by_request`); *slow_queries* — a live
    :class:`~repro.obs.flight.SlowQueryLog`, loaded entries, or a saved
    JSONL path — adds the "Slow queries" section.
    """
    if metrics is None and isinstance(source, Recorder):
        metrics = source.summary()
    spans = _resolve_spans(source)
    if request_id is not None:
        spans = filter_spans_by_request(spans, request_id)
        title = f"{title} — request {request_id}"
    roots = build_span_tree(spans)
    report = RunReport(title=title, span_count=len(spans))

    if spans:
        t0 = min(float(s["ts_us"]) for s in spans)
        t1 = max(float(s["ts_us"]) + float(s["dur_us"]) for s in spans)
        report.wall_ms = (t1 - t0) / 1e3
    tids = sorted({int(s.get("tid", 0)) for s in spans})
    solves = [s for s in spans if str(s.get("name", "")).startswith("solve:")]
    overview = ReportSection("Overview")
    overview.lines.append(
        f"{len(spans)} spans over {_f(report.wall_ms)} ms of wall clock, "
        f"{len(tids)} thread lane(s)."
    )
    for s in solves:
        args = ", ".join(f"{k}={v}" for k, v in dict(s.get("args", {})).items())
        overview.lines.append(
            f"- `{s['name']}` ({args}): {float(s['dur_us']) / 1e3:.3f} ms"
        )
    if not spans:
        overview.lines.append("The trace is empty — nothing was recorded.")
    report.sections.append(overview)

    if spans:
        attribution = stage_attribution(roots)
        wall_us = max(report.wall_ms * 1e3, 1e-9)
        report.sections.append(
            ReportSection(
                "Time attribution",
                lines=[
                    "Per span name; `self` excludes child spans, so the column "
                    "sums to recorded time without double counting."
                ],
                table=[
                    {
                        "span": str(r["name"]),
                        "count": str(r["count"]),
                        "total ms": _f(float(r["total_ms"])),
                        "self ms": _f(float(r["self_ms"])),
                        "mean ms": _f(float(r["mean_ms"])),
                        "max ms": _f(float(r["max_ms"])),
                        "% wall": _f(float(r["total_ms"]) * 1e3 / wall_us * 100.0, 1),
                    }
                    for r in attribution
                ],
            )
        )
        report.sections.append(
            ReportSection("Span tree", code=_tree_lines(roots))
        )

    _superstep_section(spans, report)
    _exchange_section(spans, report)
    _bucket_section(spans, report)
    _wave_section(spans, report)
    if slow_queries is not None:
        _slow_query_section(_resolve_slow_queries(slow_queries), report)
    _metrics_sections(metrics, report)
    return report


def _sorted_named(spans: Sequence[SpanDict], name: str) -> list[SpanDict]:
    return sorted(
        (s for s in spans if s.get("name") == name),
        key=lambda s: float(s.get("ts_us", 0.0)),
    )


def _superstep_section(spans: Sequence[SpanDict], report: RunReport) -> None:
    steps = _sorted_named(spans, "superstep")
    if not steps:
        return
    rows: list[dict[str, str]] = []
    for s in steps[:MAX_TABLE_ROWS]:
        args = dict(s.get("args", {}))
        rows.append(
            {
                "step": str(_arg_int(args, "step")),
                "bound": _f(float(args.get("bound", float("nan")))),
                "phases": str(_arg_int(args, "phases")),
                "activated": str(_arg_int(args, "activated")),
                "ms": _f(float(s["dur_us"]) / 1e3),
            }
        )
    lines = [f"{len(steps)} sharded supersteps (global window rounds)."]
    if len(steps) > MAX_TABLE_ROWS:
        lines.append(f"Showing the first {MAX_TABLE_ROWS}.")
    report.sections.append(ReportSection("Sharded supersteps", lines=lines, table=rows))


def _exchange_section(spans: Sequence[SpanDict], report: RunReport) -> None:
    flushes = _sorted_named(spans, "exchange")
    if not flushes:
        return
    totals = {"entries_posted": 0, "entries_carried": 0, "entries_applied": 0,
              "bytes_carried": 0}
    rows: list[dict[str, str]] = []
    for idx, s in enumerate(flushes):
        args = dict(s.get("args", {}))
        for key in totals:
            totals[key] += _arg_int(args, key)
        if idx < MAX_TABLE_ROWS:
            rows.append(
                {
                    "superstep": str(_arg_int(args, "step", idx)),
                    "posted": str(_arg_int(args, "entries_posted")),
                    "carried": str(_arg_int(args, "entries_carried")),
                    "applied": str(_arg_int(args, "entries_applied")),
                    "bytes": str(_arg_int(args, "bytes_carried")),
                    "ms": _f(float(s["dur_us"]) / 1e3),
                }
            )
    posted = totals["entries_posted"]
    dedup = totals["entries_carried"] / posted if posted else 1.0
    lines = [
        f"{len(flushes)} exchange rounds: {totals['entries_posted']} posted → "
        f"{totals['entries_carried']} carried ({dedup:.0%} of posted) → "
        f"{totals['entries_applied']} applied, "
        f"{totals['bytes_carried']} bytes on the wire.",
    ]
    if len(flushes) > MAX_TABLE_ROWS:
        lines.append(f"Showing the first {MAX_TABLE_ROWS} rounds.")
    report.sections.append(
        ReportSection("Exchange ledger (per superstep)", lines=lines, table=rows)
    )


def _bucket_section(spans: Sequence[SpanDict], report: RunReport) -> None:
    buckets = _sorted_named(spans, "bucket")
    if not buckets:
        return
    frontiers = sorted(
        float(_arg_int(dict(s.get("args", {})), "frontier")) for s in buckets
    )
    settled_total = sum(_arg_int(dict(s.get("args", {})), "settled") for s in buckets)
    rows: list[dict[str, str]] = []
    for s in buckets[:MAX_TABLE_ROWS]:
        args = dict(s.get("args", {}))
        rows.append(
            {
                "bucket": str(_arg_int(args, "index")),
                "frontier": str(_arg_int(args, "frontier")),
                "phases": str(_arg_int(args, "phases")),
                "settled": str(_arg_int(args, "settled")),
                "ms": _f(float(s["dur_us"]) / 1e3),
            }
        )
    lines = [
        f"{len(buckets)} buckets processed, {settled_total} vertices settled; "
        f"frontier occupancy p50 {_f(_pct(frontiers, 50), 0)}, "
        f"p90 {_f(_pct(frontiers, 90), 0)}, max {_f(frontiers[-1], 0)}.",
    ]
    if len(buckets) > MAX_TABLE_ROWS:
        lines.append(f"Showing the first {MAX_TABLE_ROWS} buckets.")
    report.sections.append(ReportSection("Bucket occupancy", lines=lines, table=rows))


def _wave_section(spans: Sequence[SpanDict], report: RunReport) -> None:
    waves = _sorted_named(spans, "relax-wave")
    if not waves:
        return
    by_kernel: dict[str, dict[str, Any]] = {}
    for s in waves:
        args = dict(s.get("args", {}))
        kernel = str(args.get("kernel", "?"))
        agg = by_kernel.setdefault(
            kernel, {"waves": 0, "relaxations": 0, "touched": 0, "sizes": []}
        )
        agg["waves"] += 1
        agg["relaxations"] += _arg_int(args, "relaxations")
        agg["touched"] += _arg_int(args, "touched")
        agg["sizes"].append(float(_arg_int(args, "wave")))
    rows: list[dict[str, str]] = []
    for kernel in sorted(by_kernel):
        agg = by_kernel[kernel]
        sizes = sorted(agg["sizes"])
        waves_n = int(agg["waves"])
        relax = int(agg["relaxations"])
        rows.append(
            {
                "kernel": kernel,
                "waves": str(waves_n),
                "wave p50": _f(_pct(sizes, 50), 0),
                "wave p90": _f(_pct(sizes, 90), 0),
                "wave max": _f(sizes[-1], 0),
                "relaxations": str(relax),
                "relax/wave": _f(relax / waves_n, 1),
                "touched": str(int(agg["touched"])),
            }
        )
    report.sections.append(
        ReportSection(
            "Relaxation-wave density",
            lines=[
                "Wave size is the frontier handed to one gather→min→scatter "
                "pass; density (relax/wave) is what picks the scatter kernel "
                "over argsort."
            ],
            table=rows,
        )
    )


def _slow_query_section(
    entries: Sequence[Mapping[str, Any]], report: RunReport
) -> None:
    section = ReportSection("Slow queries")
    if not entries:
        section.lines.append("No queries crossed the slow-query threshold.")
        report.sections.append(section)
        return
    ordered = sorted(
        (dict(e) for e in entries),
        key=lambda e: float(e.get("latency_ms", 0.0)),
        reverse=True,
    )
    threshold = ordered[0].get("threshold_ms")
    over = f" (threshold {_f(float(threshold), 1)} ms)" if threshold is not None else ""
    section.lines.append(f"{len(ordered)} slow quer{'y' if len(ordered) == 1 else 'ies'}{over}, worst first.")
    if len(ordered) > MAX_TABLE_ROWS:
        section.lines.append(f"Showing the {MAX_TABLE_ROWS} slowest.")
    rows: list[dict[str, str]] = []
    for e in ordered[:MAX_TABLE_ROWS]:
        plan = dict(e.get("plan", {}))
        counters = dict(e.get("counters", {}))
        plan_s = (
            f"{plan.get('cached', 0)}c/{plan.get('exact_sources', 0)}x"
            if plan
            else "-"
        )
        rows.append(
            {
                "request": str(e.get("request_id", "?")),
                "latency ms": _f(float(e.get("latency_ms", float("nan")))),
                "stepper": str(e.get("stepper", "-")),
                "cache": "hit" if e.get("cache_hit") else "miss",
                "plan (cached/exact)": plan_s,
                "supersteps": str(counters.get("sharded.supersteps", "-")),
                "flight spans": str(len(e.get("flight", []) or [])),
            }
        )
    section.table = rows
    report.sections.append(section)


def _metrics_sections(metrics: Mapping[str, Any] | None, report: RunReport) -> None:
    if not metrics:
        return
    counters = metrics.get("counters", {})
    gauges = metrics.get("gauges", {})
    histograms = metrics.get("histograms", {})
    if counters or gauges:
        rows = [
            {"metric": str(k), "kind": "counter", "value": str(v)}
            for k, v in sorted(dict(counters).items())
        ] + [
            {"metric": str(k), "kind": "gauge", "value": _f(float(v))}
            for k, v in sorted(dict(gauges).items())
        ]
        report.sections.append(
            ReportSection("Metrics — counters & gauges", table=rows)
        )
    if histograms:
        rows = []
        for name, h in sorted(dict(histograms).items()):
            summary = dict(h)
            rows.append(
                {
                    "histogram": str(name),
                    "count": str(int(summary.get("count", 0))),
                    "mean": _f(float(summary.get("mean", float("nan")))),
                    "p50": _f(float(summary.get("p50", float("nan")))),
                    "p90": _f(float(summary.get("p90", float("nan")))),
                    "p99": _f(float(summary.get("p99", float("nan")))),
                    "max": _f(float(summary.get("max", float("nan")))),
                }
            )
        report.sections.append(
            ReportSection(
                "Metrics — latency histograms",
                lines=["Interpolated percentiles; `NaN` marks an empty histogram."],
                table=rows,
            )
        )


# --------------------------------------------------------------------------
# renderers
# --------------------------------------------------------------------------


def _md_table(rows: Sequence[Mapping[str, str]]) -> list[str]:
    if not rows:
        return ["(no rows)"]
    headers = list(rows[0].keys())
    out = [
        "| " + " | ".join(headers) + " |",
        "| " + " | ".join("---" for _ in headers) + " |",
    ]
    for row in rows:
        out.append("| " + " | ".join(str(row.get(h, "")) for h in headers) + " |")
    return out


def render_markdown(report: RunReport) -> str:
    """The report as GitHub-flavored markdown."""
    out: list[str] = [f"# {report.title}", ""]
    for section in report.sections:
        out.append(f"## {section.title}")
        out.append("")
        for line in section.lines:
            out.append(line)
        if section.lines:
            out.append("")
        if section.table is not None:
            out.extend(_md_table(section.table))
            out.append("")
        if section.code is not None:
            out.append("```text")
            out.extend(section.code)
            out.append("```")
            out.append("")
    return "\n".join(out).rstrip() + "\n"


_HTML_STYLE = """
body { font: 14px/1.5 -apple-system, 'Segoe UI', sans-serif; margin: 2rem auto;
       max-width: 70rem; padding: 0 1rem; color: #1a1a2e; }
h1 { border-bottom: 2px solid #e0e0e8; padding-bottom: .3rem; }
h2 { margin-top: 2rem; color: #30304d; }
table { border-collapse: collapse; margin: .5rem 0; }
th, td { border: 1px solid #d0d0dc; padding: .25rem .6rem; text-align: right; }
th { background: #f0f0f6; }
td:first-child, th:first-child { text-align: left; }
pre { background: #f6f6fa; border: 1px solid #e0e0e8; padding: .75rem;
      overflow-x: auto; }
""".strip()


def render_html(report: RunReport) -> str:
    """The report as one self-contained HTML document (inline CSS, no
    external assets — safe to attach as a CI artifact)."""
    esc = html.escape
    out: list[str] = [
        "<!DOCTYPE html>",
        "<html><head><meta charset='utf-8'>",
        f"<title>{esc(report.title)}</title>",
        f"<style>{_HTML_STYLE}</style>",
        "</head><body>",
        f"<h1>{esc(report.title)}</h1>",
    ]
    for section in report.sections:
        out.append(f"<h2>{esc(section.title)}</h2>")
        for line in section.lines:
            out.append(f"<p>{esc(line)}</p>")
        if section.table is not None and section.table:
            headers = list(section.table[0].keys())
            out.append("<table><thead><tr>")
            out.extend(f"<th>{esc(h)}</th>" for h in headers)
            out.append("</tr></thead><tbody>")
            for row in section.table:
                out.append(
                    "<tr>"
                    + "".join(f"<td>{esc(str(row.get(h, '')))}</td>" for h in headers)
                    + "</tr>"
                )
            out.append("</tbody></table>")
        if section.code is not None:
            out.append("<pre>" + esc("\n".join(section.code)) + "</pre>")
    out.append("</body></html>")
    return "\n".join(out) + "\n"
