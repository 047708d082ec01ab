"""The SHARD experiment: partition-parallel stepping, measured honestly.

For each suite graph, the classic fused Δ-stepper sets the sequential
baseline; then every (partitioner, shard count) configuration of the
sharded stepper solves the same workload.  Three things are reported per
configuration, because all three decide whether sharding is worth it:

- **speedup** over the sequential baseline (the transport matters: the
  thread transport overlaps shard steps for real, the inline transport
  measures pure protocol overhead);
- **cut quality** — the fraction of edges crossing shards, per
  partitioner;
- **communication volume** — the entries/bytes the frontier exchange
  actually carried, the number a multi-machine deployment pays latency
  for.

Every configuration is verified **bit-identical** to Dijkstra before
timing (the sharded schedule is one more label-correcting order over the
same min-plus fixed point), and the verification is the experiment's
PASS criterion — on CI-sized graphs speedup is reported, not asserted,
since Python-level sharding of millisecond solves can legitimately lose
to its own overhead.
"""

from __future__ import annotations

import numpy as np

from ..shard import ShardedDeltaStepper, partition_graph
from ..shard.partition import PARTITIONERS
from ..sssp.reference import dijkstra
from ..sssp.validate import ValidationError
from ..stepping import get_stepper
from .reporting import format_table
from .timing import time_callable
from .workloads import Workload, suite_workloads

__all__ = ["sharded_scaling_series", "render_sharded_scaling"]


def sharded_scaling_series(
    workloads: list[Workload] | None = None,
    shard_counts: tuple[int, ...] = (2, 4),
    partitioners: tuple[str, ...] | None = None,
    transport: str = "threads",
    repeats: int = 3,
    verify: bool = True,
) -> list[dict]:
    """Per-(graph, partitioner, shard-count) timings + exchange metrics.

    Each graph leads with its sequential baseline row (``partitioner
    "-"``, 1 shard); configuration rows carry speedup over that
    baseline, the partition's cut fraction, and the run's communication
    volume.  ``verified`` is ``"ok"`` only when the configuration's
    distances matched Dijkstra bitwise (*verify* raises
    :class:`ValidationError` on a mismatch).
    """
    workloads = workloads if workloads is not None else suite_workloads()
    partitioners = (
        tuple(partitioners) if partitioners is not None else tuple(PARTITIONERS)
    )
    if not shard_counts:
        raise ValueError("need at least one shard count")
    baseline = get_stepper("delta")
    stepper = ShardedDeltaStepper()
    rows: list[dict] = []
    for wl in workloads:
        oracle = dijkstra(wl.graph, wl.source).distances if verify else None
        base_ms = time_callable(
            lambda: baseline.solve(wl.graph, wl.source), repeats=repeats
        ).best_ms
        rows.append(
            {
                "graph": wl.name,
                "family": wl.graph.meta.get("family", "?"),
                "partitioner": "-",
                "shards": 1,
                "ms": base_ms,
                "speedup": 1.0,
                "cut_frac": 0.0,
                "entries": 0,
                "kb": 0.0,
                "verified": "ok" if verify else "-",
            }
        )
        for part in partitioners:
            for k in shard_counts:
                sg = partition_graph(wl.graph, k, part)
                run = lambda: stepper.solve(
                    wl.graph, wl.source, sharded=sg, transport=transport
                )
                res = run()
                if oracle is not None and not np.array_equal(res.distances, oracle):
                    raise ValidationError(f"{wl.name}: sharded({part}, {k}) differs from Dijkstra")
                ms = time_callable(run, repeats=repeats).best_ms
                rows.append(
                    {
                        "graph": wl.name,
                        "family": wl.graph.meta.get("family", "?"),
                        "partitioner": part,
                        "shards": sg.num_shards,
                        "ms": ms,
                        "speedup": base_ms / ms if ms > 0 else 1.0,
                        "cut_frac": sg.cut_fraction,
                        "entries": res.extra["entries_carried"],
                        "kb": res.extra["bytes_carried"] / 1024.0,
                        "verified": "ok" if verify else "-",
                    }
                )
    return rows


def render_sharded_scaling(rows: list[dict]) -> str:
    """The SHARD panel: configuration table + speedup/volume headline."""
    table = format_table(
        rows,
        columns=[
            "graph", "family", "partitioner", "shards", "ms", "speedup",
            "cut_frac", "entries", "kb", "verified",
        ],
        floatfmt=".3f",
    )
    config_rows = [r for r in rows if r["shards"] > 1]
    best: dict[str, dict] = {}
    for r in config_rows:
        if r["graph"] not in best or r["speedup"] > best[r["graph"]]["speedup"]:
            best[r["graph"]] = r
    all_verified = all(r["verified"] in ("ok", "-") for r in rows)
    multi = sum(1 for r in best.values() if r["speedup"] >= 1.0)
    total_kb = sum(r["kb"] for r in config_rows)
    lines = [
        "SHARD — Partition-parallel sharded stepper (all configurations "
        "verified bit-identical to Dijkstra)",
        "",
        table,
        "",
    ]
    for g, r in best.items():
        lines.append(
            f"{g}: best {r['speedup']:.2f}x at {r['partitioner']}/"
            f"{r['shards']} shards, cut {r['cut_frac']:.1%}, "
            f"{r['entries']} entries ({r['kb']:.1f} KiB) exchanged"
        )
    verdict = "PASS" if all_verified else "MISS"
    lines.append(
        f"\nBit-identity on every (partitioner, shard-count) configuration "
        f"[{verdict}]; {multi}/{len(best)} graphs see >=1.0x from a "
        f"multi-shard configuration; {total_kb:.1f} KiB total exchange volume."
    )
    return "\n".join(lines) + "\n"
