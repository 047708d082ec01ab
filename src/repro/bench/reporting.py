"""Plain-text rendering of benchmark series: tables and ASCII charts.

The harness prints the same rows/series the paper's figures plot; these
helpers keep that output aligned and diff-friendly (``repro fig3``,
``fig4`` and ``profile`` print it verbatim).
"""

from __future__ import annotations

import math
from typing import Iterable

__all__ = ["format_table", "ascii_bar_chart", "geometric_mean"]


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean (the right average for ratios/speedups)."""
    vals = [v for v in values if v > 0]
    if not vals:
        return 0.0
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def format_table(rows: list[dict], columns: list[str] | None = None, floatfmt: str = ".2f") -> str:
    """Render dict-rows as an aligned text table."""
    if not rows:
        return "(no rows)"
    columns = columns or list(rows[0].keys())

    def cell(v) -> str:
        if isinstance(v, float):
            return format(v, floatfmt)
        return str(v)

    rendered = [[cell(r.get(c, "")) for c in columns] for r in rows]
    widths = [
        max(len(columns[k]), *(len(row[k]) for row in rendered))
        for k in range(len(columns))
    ]
    header = "  ".join(c.ljust(widths[k]) for k, c in enumerate(columns))
    rule = "  ".join("-" * w for w in widths)
    body = "\n".join(
        "  ".join(row[k].rjust(widths[k]) if _numericish(rows[i].get(columns[k])) else row[k].ljust(widths[k]) for k in range(len(columns)))
        for i, row in enumerate(rendered)
    )
    return f"{header}\n{rule}\n{body}"


def _numericish(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def ascii_bar_chart(
    labels: list[str],
    series: dict[str, list[float]],
    width: int = 48,
    log_scale: bool = False,
    unit: str = "",
) -> str:
    """Grouped horizontal bar chart (one row group per label).

    ``log_scale=True`` mimics the paper's Fig. 3 log-runtime axis.
    """
    all_vals = [v for vs in series.values() for v in vs if v > 0]
    if not all_vals:
        return "(no data)"
    vmax = max(all_vals)
    vmin = min(all_vals)
    label_w = max(len(x) for x in labels)
    series_w = max(len(s) for s in series)

    def bar(v: float) -> int:
        if v <= 0:
            return 0
        if log_scale and vmax > vmin:
            lo, hi = math.log(vmin), math.log(vmax)
            frac = (math.log(v) - lo) / (hi - lo) if hi > lo else 1.0
            return max(1, int(round(frac * (width - 1))) + 1)
        return max(1, int(round(v / vmax * width)))

    lines = []
    for k, label in enumerate(labels):
        for s_name, vals in series.items():
            v = vals[k]
            lines.append(
                f"{label.ljust(label_w)}  {s_name.ljust(series_w)} "
                f"|{'#' * bar(v)} {v:.3g}{unit}"
            )
        lines.append("")
    return "\n".join(lines).rstrip()
