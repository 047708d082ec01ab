"""Benchmark workloads: graph + source + Δ triples.

The paper's configuration (§VI.A): undirected unit-weight graphs, Δ=1.
Sources are chosen from the largest connected component (a disconnected
source would measure an empty traversal — the GAP benchmark suite makes
the same choice), deterministically per graph.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass

import numpy as np

from ..graphs import datasets
from ..graphs.graph import Graph
from ..graphs.stats import connected_components

__all__ = ["Workload", "workload_for", "suite_workloads", "active_suite_name"]


@dataclass(frozen=True)
class Workload:
    """One benchmark unit: run SSSP on *graph* from *source* with Δ."""

    name: str
    graph: Graph = None  # type: ignore[assignment]
    source: int = 0
    delta: float = 1.0

    @property
    def num_vertices(self) -> int:
        return self.graph.num_vertices

    @property
    def num_edges(self) -> int:
        return self.graph.num_edges

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Workload<{self.name}, src={self.source}, delta={self.delta}>"


@functools.lru_cache(maxsize=64)
def _source_in_largest_component(name: str) -> int:
    g = datasets.load(name)
    labels = connected_components(g)
    if len(labels) == 0:
        return 0
    largest = int(np.bincount(labels).argmax())
    return int(np.nonzero(labels == largest)[0][0])


@functools.lru_cache(maxsize=64)
def workload_for(name: str, delta: float = 1.0, weights: str = "unit") -> Workload:
    """Build the canonical workload for a catalog graph."""
    return Workload(
        name=name,
        graph=datasets.load(name, weights=weights),
        source=_source_in_largest_component(name),
        delta=delta,
    )


def active_suite_name(default: str = "ci") -> str:
    """Suite selection for pytest benches: ``REPRO_SUITE=ci|paper``.

    ``ci`` (default) keeps ``pytest benchmarks/`` fast; ``paper`` runs the
    full Fig. 3/Fig. 4 suite (minutes; the graphs of
    ``repro fig3 --suite paper``).
    """
    return os.environ.get("REPRO_SUITE", default)


def suite_workloads(kind: str | None = None, delta: float = 1.0, weights: str = "unit") -> list[Workload]:
    """Workloads for a whole suite, ascending node count (figure order)."""
    kind = kind or active_suite_name()
    return [workload_for(name, delta=delta, weights=weights) for name in datasets.suite_names(kind)]
