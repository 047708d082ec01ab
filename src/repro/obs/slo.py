"""Declarative SLOs over the metrics registry: targets and budgets.

The ROADMAP's serving-tier item asks for an *SLO gate*: a machine-checkable
statement of what "fast enough" means for the query service, evaluated
against the same :class:`~repro.obs.metrics.MetricsRegistry` histograms
the serving tier already feeds.  This module is that statement and its
evaluator:

- :class:`SLOSpec` — one objective, declaratively: a latency histogram
  (``service.query_ms``), percentile targets (``p99 <= 250 ms``), and an
  optional availability objective ("99.9% of requests complete under
  500 ms") with the error budget that implies.
- :func:`load_slo_path` — specs from a TOML file (``slo.toml``), via
  :mod:`tomllib` on Python ≥ 3.11 and a minimal built-in subset parser
  before that (the repo adds no dependencies).
- :func:`evaluate` — one-shot, bucket-exact evaluation over a live
  registry.  Results carry per-check verdicts and remaining error
  budget; ``repro slo-check`` turns them into an exit code.
- :func:`export_slo_gauges` — verdicts, observed values, and budgets as
  registry gauges, so one OpenMetrics scrape carries both the raw
  histograms and the SLO view of them.

Availability is counted bucket-wise: an observation is *good* when it
lands in a bucket whose upper bound is ≤ the threshold, so thresholds
aligned with bucket bounds (the ``latency-ms`` preset) are exact and
misaligned thresholds are *conservative* (the straddling bucket counts
as bad).  Empty histograms follow the registry's ``NaN`` sentinel:
checks report "no observations" and pass vacuously rather than
inventing a latency.

Like the rest of :mod:`repro.obs` this module is stdlib-only and part of
the ``mypy --strict`` typing gate.
"""

from __future__ import annotations

import os
from bisect import bisect_right
from dataclasses import dataclass
from math import isnan, nan
from typing import Any, Iterable, Mapping

from .metrics import Histogram, MetricsRegistry

try:  # Python >= 3.11
    import tomllib
except ModuleNotFoundError:  # pragma: no cover - exercised on 3.10 CI
    tomllib = None  # type: ignore[assignment]

__all__ = [
    "LatencyTarget",
    "AvailabilityObjective",
    "SLOSpec",
    "CheckResult",
    "SLOResult",
    "load_slo_path",
    "parse_slo_data",
    "evaluate",
    "export_slo_gauges",
    "render_slo_text",
]


# -- spec ---------------------------------------------------------------------


@dataclass(frozen=True)
class LatencyTarget:
    """One percentile target: the *percentile*-th observed latency must
    not exceed *threshold_ms*."""

    percentile: float
    threshold_ms: float

    def __post_init__(self) -> None:
        if not 0 < self.percentile <= 100:
            raise ValueError(f"percentile must be in (0, 100], got {self.percentile}")
        if self.threshold_ms < 0:
            raise ValueError("threshold_ms must be >= 0")


@dataclass(frozen=True)
class AvailabilityObjective:
    """At least *objective* (a fraction, e.g. ``0.999``) of observations
    must be good — i.e. complete within *threshold_ms*.  The implied
    error budget is ``1 - objective``."""

    objective: float
    threshold_ms: float

    def __post_init__(self) -> None:
        if not 0 < self.objective < 1:
            raise ValueError(f"objective must be in (0, 1), got {self.objective}")
        if self.threshold_ms < 0:
            raise ValueError("threshold_ms must be >= 0")

    @property
    def error_budget(self) -> float:
        return 1.0 - self.objective


@dataclass(frozen=True)
class SLOSpec:
    """One SLO: a named bundle of targets over one latency histogram."""

    name: str
    metric: str
    latency: tuple[LatencyTarget, ...] = ()
    availability: AvailabilityObjective | None = None

    def __post_init__(self) -> None:
        if not self.name or not self.metric:
            raise ValueError("an SLO needs a name and a metric")
        if not self.latency and self.availability is None:
            raise ValueError(
                f"SLO {self.name!r} declares no latency targets and no "
                "availability objective"
            )


# -- results ------------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    """One verdict: a latency or availability check against one SLO."""

    slo: str
    metric: str
    kind: str  # "latency" | "availability"
    target: str  # human-readable, e.g. "p99 <= 250ms"
    objective: float  # threshold_ms (latency) or fraction (availability)
    observed: float  # observed percentile ms / good fraction (NaN = no data)
    ok: bool
    #: fraction of the error budget left (availability checks only;
    #: negative = budget blown, NaN = no data)
    budget_remaining: float = nan
    note: str = ""


@dataclass(frozen=True)
class SLOResult:
    """All checks from one evaluation; ``ok`` is the AND of them."""

    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if not c.ok)


# -- TOML loading -------------------------------------------------------------


def _parse_toml_value(text: str) -> Any:
    text = text.strip()
    if len(text) >= 2 and text[0] == text[-1] and text[0] in ("'", '"'):
        return text[1:-1]
    if text == "true":
        return True
    if text == "false":
        return False
    if text.startswith("[") and text.endswith("]"):
        inner = text[1:-1].strip()
        if not inner:
            return []
        return [_parse_toml_value(part) for part in inner.split(",")]
    try:
        return int(text)
    except ValueError:
        return float(text)


def _descend(node: dict[str, Any], path: list[str]) -> dict[str, Any]:
    for part in path:
        nxt = node.get(part)
        if isinstance(nxt, list):
            nxt = nxt[-1]
        if nxt is None:
            nxt = node[part] = {}
        if not isinstance(nxt, dict):
            raise ValueError(f"TOML path component {part!r} is not a table")
        node = nxt
    return node


def _parse_minimal_toml(text: str) -> dict[str, Any]:
    """A TOML subset (tables, arrays of tables, scalar/array values) for
    Python < 3.11 where :mod:`tomllib` does not exist.  Enough for
    ``slo.toml``; not a general parser."""
    root: dict[str, Any] = {}
    current = root
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[["):
            end = line.find("]]")
            if end < 0:
                raise ValueError(f"slo.toml line {lineno}: unterminated [[table]]")
            path = [p.strip() for p in line[2:end].split(".")]
            parent = _descend(root, path[:-1])
            arr = parent.setdefault(path[-1], [])
            if not isinstance(arr, list):
                raise ValueError(f"slo.toml line {lineno}: {path[-1]!r} is not an array")
            current = {}
            arr.append(current)
        elif line.startswith("["):
            end = line.find("]")
            if end < 0:
                raise ValueError(f"slo.toml line {lineno}: unterminated [table]")
            path = [p.strip() for p in line[1:end].split(".")]
            parent = _descend(root, path[:-1])
            current = parent.setdefault(path[-1], {})
            if not isinstance(current, dict):
                raise ValueError(f"slo.toml line {lineno}: {path[-1]!r} is not a table")
        else:
            key, sep, value = line.partition("=")
            if not sep:
                raise ValueError(f"slo.toml line {lineno}: expected key = value")
            current[key.strip()] = _parse_toml_value(value)
    return root


def parse_slo_data(data: Mapping[str, Any]) -> list[SLOSpec]:
    """Parsed-TOML dict → specs.  Expects ``[[slo]]`` entries with
    ``name``/``metric``, optional ``[[slo.latency]]`` targets and an
    optional ``[slo.availability]`` table."""
    entries = data.get("slo")
    if not isinstance(entries, list) or not entries:
        raise ValueError("SLO file declares no [[slo]] entries")
    specs: list[SLOSpec] = []
    for entry in entries:
        if not isinstance(entry, Mapping):
            raise ValueError("each [[slo]] entry must be a table")
        latency = tuple(
            LatencyTarget(
                percentile=float(t["percentile"]),
                threshold_ms=float(t["threshold_ms"]),
            )
            for t in entry.get("latency", ())
        )
        avail_raw = entry.get("availability")
        availability = (
            AvailabilityObjective(
                objective=float(avail_raw["objective"]),
                threshold_ms=float(avail_raw["threshold_ms"]),
            )
            if avail_raw is not None
            else None
        )
        specs.append(
            SLOSpec(
                name=str(entry.get("name", "")),
                metric=str(entry.get("metric", "")),
                latency=latency,
                availability=availability,
            )
        )
    return specs


def load_slo_path(path: "str | os.PathLike[str]") -> list[SLOSpec]:
    """Load SLO specs from a TOML file (tomllib when available, the
    built-in subset parser on Python < 3.11)."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    data: Mapping[str, Any]
    if tomllib is not None:
        data = tomllib.loads(text)
    else:  # pragma: no cover - exercised on 3.10 CI
        data = _parse_minimal_toml(text)
    return parse_slo_data(data)


# -- evaluation ---------------------------------------------------------------


def _good_count(hist: Histogram, threshold_ms: float) -> int:
    """Observations in buckets wholly ≤ *threshold_ms* (exact when the
    threshold sits on a bucket bound, conservative otherwise)."""
    return sum(hist.counts[: bisect_right(hist.bounds, threshold_ms)])


def _latency_check(
    spec: SLOSpec, target: LatencyTarget, observed: float, count: int
) -> CheckResult:
    label = f"p{target.percentile:g} <= {target.threshold_ms:g}ms"
    if count == 0 or isnan(observed):
        return CheckResult(
            slo=spec.name,
            metric=spec.metric,
            kind="latency",
            target=label,
            objective=target.threshold_ms,
            observed=nan,
            ok=True,
            note="no observations",
        )
    return CheckResult(
        slo=spec.name,
        metric=spec.metric,
        kind="latency",
        target=label,
        objective=target.threshold_ms,
        observed=observed,
        ok=observed <= target.threshold_ms,
    )


def _availability_check(
    spec: SLOSpec, avail: AvailabilityObjective, good: int, count: int
) -> CheckResult:
    label = f"{avail.objective:.4%} <= {avail.threshold_ms:g}ms"
    if count == 0:
        return CheckResult(
            slo=spec.name,
            metric=spec.metric,
            kind="availability",
            target=label,
            objective=avail.objective,
            observed=nan,
            ok=True,
            note="no observations",
        )
    fraction = good / count
    bad_fraction = 1.0 - fraction
    budget_remaining = 1.0 - bad_fraction / avail.error_budget
    return CheckResult(
        slo=spec.name,
        metric=spec.metric,
        kind="availability",
        target=label,
        objective=avail.objective,
        observed=fraction,
        ok=fraction >= avail.objective,
        budget_remaining=budget_remaining,
    )


def evaluate(specs: Iterable[SLOSpec], registry: MetricsRegistry) -> SLOResult:
    """Evaluate *specs* against a live registry (bucket-exact)."""
    hists = {
        name: inst
        for kind, name, inst in registry.items()
        if kind == "histogram" and isinstance(inst, Histogram)
    }
    checks: list[CheckResult] = []
    for spec in specs:
        hist = hists.get(spec.metric)
        if hist is None:
            hist = Histogram()  # empty — every check reports "no observations"
        for target in spec.latency:
            checks.append(
                _latency_check(
                    spec, target, hist.percentile(target.percentile), hist.count
                )
            )
        if spec.availability is not None:
            checks.append(
                _availability_check(
                    spec,
                    spec.availability,
                    _good_count(hist, spec.availability.threshold_ms),
                    hist.count,
                )
            )
    return SLOResult(checks=tuple(checks))


# -- exposition ---------------------------------------------------------------


def export_slo_gauges(
    result: SLOResult, metrics: MetricsRegistry, prefix: str = "slo"
) -> None:
    """Write one evaluation's verdicts into *metrics* as gauges, so the
    OpenMetrics exposition carries the SLO view next to the raw
    histograms: per-SLO ``<prefix>.<name>.ok`` plus per-check observed
    values and (for availability) remaining budget."""
    ok_by_slo: dict[str, bool] = {}
    for check in result.checks:
        ok_by_slo[check.slo] = ok_by_slo.get(check.slo, True) and check.ok
        base = f"{prefix}.{check.slo}"
        if check.kind == "latency":
            pct = check.target.split(" ", 1)[0]  # "p99"
            metrics.set_gauge(f"{base}.{pct}_ms", check.observed)
            metrics.set_gauge(f"{base}.{pct}_ok", 1.0 if check.ok else 0.0)
        else:
            metrics.set_gauge(f"{base}.availability", check.observed)
            metrics.set_gauge(f"{base}.budget_remaining", check.budget_remaining)
    for slo_name, ok in ok_by_slo.items():
        metrics.set_gauge(f"{prefix}.{slo_name}.ok", 1.0 if ok else 0.0)


def render_slo_text(result: SLOResult) -> str:
    """The evaluation as aligned one-line-per-check text (CLI output)."""
    lines = []
    for check in result.checks:
        mark = "ok " if check.ok else "FAIL"
        if check.kind == "latency":
            observed = "-" if isnan(check.observed) else f"{check.observed:.3f}ms"
        else:
            observed = "-" if isnan(check.observed) else f"{check.observed:.4%}"
        note = f"  ({check.note})" if check.note else ""
        lines.append(
            f"[{mark}] {check.slo}: {check.metric} {check.target} "
            f"observed={observed}{note}"
        )
    verdict = "PASS" if result.ok else "FAIL"
    lines.append(
        f"SLO check: {verdict} — "
        f"{len(result.checks) - len(result.failures)}/{len(result.checks)} checks ok"
    )
    return "\n".join(lines)
