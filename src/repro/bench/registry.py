"""Experiment registry: one entry per paper artifact.

Each experiment knows how to produce its rows and render its panel;
``repro fig3``, ``fig4``, ``profile``, ``serve-bench`` and ``mutate-bench``
run through this table, and the tests check it lists every paper
artifact, so no figure can be silently dropped.

The registry is also where the repo's **perf trajectory** is written:
:func:`write_bench_json` is the one shared writer every bench runner
(``serve-bench``, ``mutate-bench``, ``step-bench``, ``shard-bench``,
``kernel-bench``) emits its rows through, as ``BENCH_<NAME>.json`` next
to the repo root — machine-readable results a CI gate (or a future PR's
regression check) can diff without scraping the rendered panels.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .history import provenance
from .figures import (
    fig3_series,
    fig4_series,
    render_fig3,
    render_fig4,
    render_sec6c,
    sec6c_profile,
)
from .kernel_bench import kernel_bench_series, render_kernel_bench
from .mutate_bench import mutation_repair_series, render_mutation_repair
from .service_bench import render_service_throughput, service_throughput_series
from .shard_bench import render_sharded_scaling, sharded_scaling_series
from .step_bench import render_stepping_portfolio, stepping_portfolio_series
from .workloads import suite_workloads

__all__ = [
    "Experiment",
    "EXPERIMENTS",
    "run_experiment",
    "run_experiment_rows",
    "render_experiment",
    "write_bench_json",
    "bench_json_path",
]


@dataclass(frozen=True)
class Experiment:
    """A reproducible paper artifact."""

    id: str
    paper_artifact: str
    claim: str
    run: Callable[..., list[dict]] = None  # type: ignore[assignment]
    render: Callable[[list[dict]], str] = None  # type: ignore[assignment]


EXPERIMENTS: dict[str, Experiment] = {
    "FIG3": Experiment(
        id="FIG3",
        paper_artifact="Figure 3",
        claim="Fused sequential implementation beats unfused SuiteSparse-style by ~3.7x on average",
        run=lambda suite=None, **kw: fig3_series(suite_workloads(suite), **kw),
        render=render_fig3,
    ),
    "FIG4": Experiment(
        id="FIG4",
        paper_artifact="Figure 4",
        claim="OpenMP-task parallelism gains ~1.44x (2T) and ~1.5x (4T) over sequential fused",
        run=lambda suite=None, **kw: fig4_series(suite_workloads(suite), **kw),
        render=render_fig4,
    ),
    "SEC6C": Experiment(
        id="SEC6C",
        paper_artifact="Section VI.C (text claim)",
        claim="A_L/A_H matrix filtering consumes 35-40% of sequential runtime",
        run=lambda suite=None, **kw: sec6c_profile(suite_workloads(suite), **kw),
        render=render_sec6c,
    ),
    "SERVE": Experiment(
        id="SERVE",
        paper_artifact="Extension (service layer)",
        claim="Query service (coalesced batches of single-source solves) serves >=2x the query throughput of a per-query fused loop over the CI suite (every served answer bit-identical to Dijkstra)",
        run=lambda suite=None, **kw: service_throughput_series(suite_workloads(suite), **kw),
        render=render_service_throughput,
    ),
    "DYN": Experiment(
        id="DYN",
        paper_artifact="Extension (dynamic graphs)",
        claim="Incremental repair beats full recompute >=2x in geometric mean over small (<=1% of edges) update batches; single rows may fall below 2x (every repair bit-identical to recompute)",
        run=lambda suite=None, **kw: mutation_repair_series(suite=suite, **kw),
        render=render_mutation_repair,
    ),
    "STEP": Experiment(
        id="STEP",
        paper_artifact="Extension (stepping portfolio)",
        claim="No stepper dominates across graph families; the auto-tuner's pick is within 10% of the best measured per graph",
        run=lambda suite=None, **kw: stepping_portfolio_series(suite_workloads(suite), **kw),
        render=render_stepping_portfolio,
    ),
    "SHARD": Experiment(
        id="SHARD",
        paper_artifact="Extension (sharded execution)",
        claim="The partition-parallel sharded stepper is bit-identical to Dijkstra on every (partitioner, shard-count) configuration, with speedup and communication volume reported per partitioner",
        run=lambda suite=None, **kw: sharded_scaling_series(suite_workloads(suite), **kw),
        render=render_sharded_scaling,
    ),
    "KERNEL": Experiment(
        id="KERNEL",
        paper_artifact="Extension (relaxation-kernel core)",
        claim="The shared scatter-min kernel core is bit-identical to Dijkstra on every CI graph and reaches >=1.5x phase throughput over the frozen seed hot loop on at least one graph class",
        run=lambda suite=None, **kw: kernel_bench_series(suite_workloads(suite), **kw),
        render=render_kernel_bench,
    ),
}


def run_experiment_rows(exp_id: str, suite: str | None = None, **kwargs) -> list[dict]:
    """Produce one experiment's rows (the JSON-able measurement record)."""
    return EXPERIMENTS[exp_id.upper()].run(suite=suite, **kwargs)


def render_experiment(exp_id: str, rows: list[dict]) -> str:
    """Render previously produced rows as the experiment's text panel."""
    return EXPERIMENTS[exp_id.upper()].render(rows)


def run_experiment(exp_id: str, suite: str | None = None, **kwargs) -> str:
    """Run one experiment end-to-end and return its rendered panel."""
    rows = run_experiment_rows(exp_id, suite=suite, **kwargs)
    return render_experiment(exp_id, rows)


# --------------------------------------------------------------------------
# The perf-trajectory writer
# --------------------------------------------------------------------------


def _json_default(value):
    """NumPy scalars/arrays → plain JSON values."""
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"not JSON-serializable: {type(value)!r}")


def bench_json_path(name: str, directory: str | os.PathLike | None = None) -> Path:
    """Where ``BENCH_<NAME>.json`` lands.

    *directory* wins; else ``$REPRO_BENCH_DIR`` (the test suite points
    this at a tmpdir); else the current working directory — which is the
    repo root for every documented bench invocation.
    """
    base = directory if directory is not None else os.environ.get("REPRO_BENCH_DIR", ".")
    return Path(base) / f"BENCH_{name.upper()}.json"


def write_bench_json(
    name: str,
    rows: list[dict],
    headline: dict | None = None,
    directory: str | os.PathLike | None = None,
) -> Path:
    """Persist one bench run as ``BENCH_<NAME>.json`` (the shared writer).

    The payload is the experiment's raw rows plus an optional headline
    dict (the machine-readable verdict, e.g. the KERNEL bench's
    pass/fail and best speedup) and enough provenance to diff runs:
    schema 2 embeds :func:`repro.bench.history.provenance` (git sha,
    host, cpu count, python/numpy versions), which is what lets
    ``repro bench-diff`` certify two payloads same-host before gating
    wall-clock metrics.  Returns the written path.
    """
    payload = {
        "experiment": name.upper(),
        "schema": 2,
        "written_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "claim": EXPERIMENTS[name.upper()].claim if name.upper() in EXPERIMENTS else None,
        "provenance": provenance(),
        "headline": headline or {},
        "rows": rows,
    }
    path = bench_json_path(name, directory)
    path.write_text(json.dumps(payload, indent=2, default=_json_default) + "\n")
    return path
