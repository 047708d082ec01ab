"""Benchmark harness regenerating every figure in the paper's evaluation.

- :mod:`~repro.bench.workloads` — the graph suite (Fig. 3/4's x-axis).
- :mod:`~repro.bench.figures` — series generators + ASCII renderers for
  Fig. 3, Fig. 4, and the §VI.C profile claim.
- :mod:`~repro.bench.registry` — experiment table driving the CLI's
  figure commands (``repro fig3``, ``fig4``, ``profile``).
- :mod:`~repro.bench.history` — bench provenance, the append-only
  ``BENCH_HISTORY.jsonl`` ledger, and the ``repro bench-diff``
  regression gate.
- :mod:`~repro.bench.timing` / :mod:`~repro.bench.reporting` — protocol
  and output plumbing.

``pytest benchmarks/`` wraps the same series in pytest-benchmark; the CLI
(``python -m repro fig3 --suite paper``) prints the full panels.
"""

from .figures import (
    fig3_series,
    fig4_series,
    render_fig3,
    render_fig4,
    render_sec6c,
    sec6c_profile,
)
from .history import BenchHistory, diff_bench, diff_payloads, provenance, render_diff
from .registry import EXPERIMENTS, Experiment, run_experiment
from .reporting import ascii_bar_chart, format_table, geometric_mean
from .timing import TimingStats, time_callable
from .workloads import Workload, active_suite_name, suite_workloads, workload_for

__all__ = [
    "fig3_series",
    "fig4_series",
    "sec6c_profile",
    "render_fig3",
    "render_fig4",
    "render_sec6c",
    "EXPERIMENTS",
    "Experiment",
    "run_experiment",
    "BenchHistory",
    "diff_bench",
    "diff_payloads",
    "provenance",
    "render_diff",
    "ascii_bar_chart",
    "format_table",
    "geometric_mean",
    "TimingStats",
    "time_callable",
    "Workload",
    "workload_for",
    "suite_workloads",
    "active_suite_name",
]
