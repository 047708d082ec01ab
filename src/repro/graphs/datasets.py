"""Dataset catalog: synthetic stand-ins for the paper's SNAP/GraphChallenge suite.

The paper's evaluation (§VI.A) uses "real-world graphs collected by the
Stanford Network Analytics Platform (SNAP) and the GraphChallenge …
symmetric and undirected graphs with unit edge weights", spanning node
counts over several orders of magnitude (Fig. 3's secondary axis).  This
environment has no network access, so each catalog entry regenerates the
*family* of a named SNAP/GraphChallenge dataset — degree distribution and
scale — with a deterministic seeded generator from
:mod:`repro.graphs.generators`.  Real files, when available, can be
loaded with :mod:`repro.graphs.io` and used identically.

Suites
------
- ``paper_suite()`` — ten graphs in ascending node count; the x-axis of
  Fig. 3 / Fig. 4.
- ``ci_suite()`` — miniature versions for fast tests.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable

from . import generators as gen
from .graph import Graph
from .weights import assign_weights, unit_weights

__all__ = ["DatasetSpec", "catalog", "load", "paper_suite", "ci_suite", "suite_names"]


@dataclass(frozen=True)
class DatasetSpec:
    """One catalog entry.

    Attributes
    ----------
    name:
        Catalog key.
    mimics:
        The real dataset this entry stands in for.
    family:
        Generator family (``rmat``, ``ba``, ``ws``, ``road``, ``er``).
    builder:
        Zero-argument callable producing the :class:`Graph`.
    description:
        Why this family matches the original's structure.
    """

    name: str
    mimics: str
    family: str
    builder: Callable[[], Graph] = field(compare=False)
    description: str = ""

    def build(self) -> Graph:
        g = self.builder()
        g.name = self.name
        g.meta.update({"mimics": self.mimics, "family": self.family})
        return g


def _spec(name, mimics, family, description, builder) -> DatasetSpec:
    return DatasetSpec(
        name=name, mimics=mimics, family=family, builder=builder, description=description
    )


_CATALOG: dict[str, DatasetSpec] = {}


def _register(spec: DatasetSpec) -> None:
    _CATALOG[spec.name] = spec


# --- micro graphs (tests, docs) ---------------------------------------------

_register(_spec(
    "karate-club",
    "Zachary karate club (SNAP-adjacent classic)",
    "ws",
    "34-vertex small-world stand-in for the classic community graph.",
    lambda: gen.watts_strogatz(34, k=4, beta=0.3, seed=34),
))
_register(_spec(
    "dolphins",
    "dolphins social network",
    "ws",
    "62-vertex small-world graph.",
    lambda: gen.watts_strogatz(62, k=4, beta=0.2, seed=62),
))
_register(_spec(
    "grid-tiny",
    "toy mesh",
    "road",
    "16x16 4-connected mesh for unit tests.",
    lambda: gen.grid_2d(16, 16),
))

# --- the paper-scale suite (ascending |V|) -----------------------------------

_register(_spec(
    "facebook-sim",
    "ego-Facebook (SNAP; 4,039 nodes / 88,234 edges)",
    "ba",
    "Dense preferential-attachment graph: high average degree, tiny diameter.",
    lambda: gen.barabasi_albert(4039, m_per_node=22, seed=1),
))
_register(_spec(
    "ca-grqc-sim",
    "ca-GrQc collaboration (SNAP; 5,242 nodes / 14,496 edges)",
    "ba",
    "Sparse power-law collaboration-style graph.",
    lambda: gen.barabasi_albert(5242, m_per_node=3, seed=2),
))
_register(_spec(
    "wiki-vote-sim",
    "wiki-Vote (SNAP; 7,115 nodes / ~100k edges, symmetrized)",
    "rmat",
    "Skewed R-MAT graph with heavy-tailed degrees.",
    lambda: gen.rmat(13, edge_factor=12, seed=3),
))
_register(_spec(
    "roadgrid-small",
    "roadNet-* family (SNAP), small cut",
    "road",
    "Near-planar high-diameter mesh: stresses bucket count (many phases).",
    lambda: gen.road_network(100, 100, seed=4),
))
_register(_spec(
    "ca-hepph-sim",
    "ca-HepPh collaboration (SNAP; 12,008 nodes / 118,521 edges)",
    "ba",
    "Mid-size power-law collaboration-style graph.",
    lambda: gen.barabasi_albert(12008, m_per_node=10, seed=5),
))
_register(_spec(
    "email-enron-sim",
    "email-Enron (SNAP; 36,692 nodes / 183,831 edges)",
    "rmat",
    "Sparse skewed communication graph.",
    lambda: gen.rmat(15, edge_factor=6, seed=6),
))
_register(_spec(
    "roadgrid-medium",
    "roadNet-* family (SNAP), medium cut",
    "road",
    "32k-vertex mesh; the high-diameter end of the suite.",
    lambda: gen.road_network(180, 180, seed=7),
))
_register(_spec(
    "loc-brightkite-sim",
    "loc-Brightkite (SNAP; 58,228 nodes / 214,078 edges)",
    "ba",
    "Large sparse social graph.",
    lambda: gen.barabasi_albert(58228, m_per_node=4, seed=8),
))
_register(_spec(
    "slashdot-sim",
    "soc-Slashdot0811 (SNAP; 77,360 nodes / ~500k edges, symmetrized)",
    "rmat",
    "Largest suite member: skewed, half a million stored edges.",
    lambda: gen.rmat(16, edge_factor=8, seed=9),
))
_register(_spec(
    "amazon-sim",
    "com-Amazon (SNAP; 334,863 nodes) at reduced scale",
    "ws",
    "Product co-purchase style: locally clustered with long-range links.",
    lambda: gen.watts_strogatz(100_000, k=6, beta=0.05, seed=10),
))

# --- CI miniatures -------------------------------------------------------------

_register(_spec(
    "ci-ba", "miniature power-law", "ba",
    "600-vertex BA graph for fast test runs.",
    lambda: gen.barabasi_albert(600, m_per_node=4, seed=11),
))
_register(_spec(
    "ci-rmat", "miniature R-MAT", "rmat",
    "1,024-vertex R-MAT for fast test runs.",
    lambda: gen.rmat(10, edge_factor=8, seed=12),
))
_register(_spec(
    "ci-road", "miniature road mesh", "road",
    "30x30 perturbed mesh for fast test runs.",
    lambda: gen.road_network(30, 30, seed=13),
))
_register(_spec(
    "ci-ws", "miniature small-world", "ws",
    "500-vertex Watts-Strogatz for fast test runs.",
    lambda: gen.watts_strogatz(500, k=6, beta=0.1, seed=14),
))
_register(_spec(
    "ci-er", "miniature uniform random", "er",
    "800-vertex Erdős–Rényi for fast test runs.",
    lambda: gen.erdos_renyi(800, avg_degree=6.0, seed=15),
))


def catalog() -> dict[str, DatasetSpec]:
    """The full name → spec mapping (copy; registry is immutable)."""
    return dict(_CATALOG)


@functools.lru_cache(maxsize=32)
def _load_cached(name: str) -> Graph:
    try:
        spec = _CATALOG[name]
    except KeyError:
        known = ", ".join(sorted(_CATALOG))
        raise KeyError(f"unknown dataset {name!r}; known: {known}") from None
    return spec.build()


def load(name: str, weights: str = "unit", seed: int = 0) -> Graph:
    """Build (or fetch from cache) a catalog graph.

    Parameters
    ----------
    weights:
        ``"unit"`` (paper configuration) or a distribution name accepted by
        :func:`repro.graphs.weights.assign_weights`.
    """
    g = _load_cached(name)
    if weights == "unit":
        return unit_weights(g)
    return assign_weights(g, distribution=weights, low=0.05, high=1.0, seed=seed)


def paper_suite() -> list[str]:
    """Fig. 3 / Fig. 4 suite, ascending node count (the figures' x order)."""
    names = [
        "facebook-sim",
        "ca-grqc-sim",
        "wiki-vote-sim",
        "roadgrid-small",
        "ca-hepph-sim",
        "email-enron-sim",
        "roadgrid-medium",
        "loc-brightkite-sim",
        "slashdot-sim",
        "amazon-sim",
    ]
    return sorted(names, key=lambda n: _load_cached(n).num_vertices)


def ci_suite() -> list[str]:
    """Miniature suite for tests/CI, ascending node count."""
    names = ["ci-ba", "ci-rmat", "ci-road", "ci-ws", "ci-er"]
    return sorted(names, key=lambda n: _load_cached(n).num_vertices)


def suite_names(kind: str = "paper") -> list[str]:
    """Suite selector: ``"paper"`` or ``"ci"``."""
    if kind == "paper":
        return paper_suite()
    if kind == "ci":
        return ci_suite()
    raise ValueError(f"unknown suite {kind!r}")
