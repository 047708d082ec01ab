"""Edge-weight assignment.

The paper's evaluation uses unit weights (and Δ=1); the Δ-sweep ablation
(ABL-DELTA, ``benchmarks/bench_delta_sweep.py``) needs real-valued
weights.  Weights are derived from a *hash of the canonical edge key*,
not from a sequential RNG stream, so that (a) an undirected edge gets
the same weight in both stored orientations and (b) the assignment is
independent of edge storage order.
"""

from __future__ import annotations

import numpy as np

from .graph import Graph

__all__ = ["unit_weights", "assign_weights", "hash_to_unit"]


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """SplitMix64 mixing — deterministic avalanche hash on uint64 arrays."""
    x = x + np.uint64(0x9E3779B97F4A7C15)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def hash_to_unit(keys: np.ndarray, seed: int = 0) -> np.ndarray:
    """Map integer keys to uniform floats in [0, 1) deterministically."""
    with np.errstate(over="ignore"):
        mixed = _splitmix64(keys.astype(np.uint64) ^ np.uint64(seed * 0x9E3779B9 + 1))
    return (mixed >> np.uint64(11)).astype(np.float64) / float(1 << 53)


def unit_weights(g: Graph) -> Graph:
    """Copy of *g* with every weight set to 1 (the paper's configuration)."""
    return g.with_weights(np.ones(g.num_edges, dtype=np.float64))


def assign_weights(
    g: Graph,
    distribution: str = "uniform",
    low: float = 0.0,
    high: float = 1.0,
    seed: int = 0,
    name: str | None = None,
) -> Graph:
    """Reweight *g* with hash-derived random weights.

    Parameters
    ----------
    distribution:
        ``"uniform"`` on ``[low, high)``; ``"integer"`` uniform integers in
        ``[max(low, 1), high]``; ``"exponential"`` with mean
        ``(low+high)/2``; ``"unit"`` for all-ones.
    seed:
        Stream selector — different seeds give independent weightings.

    Undirected symmetry: both orientations of an edge hash the same
    canonical key ``(min·n + max)``, so ``w(u,v) == w(v,u)`` always.
    """
    n = g.num_vertices
    src, dst, _ = g.to_edges()
    lo = np.minimum(src, dst)
    hi = np.maximum(src, dst)
    u = hash_to_unit(lo * np.int64(n) + hi, seed=seed)
    if distribution == "unit":
        w = np.ones(len(u), dtype=np.float64)
    elif distribution == "uniform":
        w = low + u * (high - low)
    elif distribution == "integer":
        lo_i = max(int(low), 1)
        hi_i = max(int(high), lo_i)
        w = np.floor(u * (hi_i - lo_i + 1)) + lo_i
    elif distribution == "exponential":
        mean = max((low + high) / 2.0, 1e-12)
        # inverse-CDF on the hash-uniform; clamp away from u=1 for safety
        w = -mean * np.log1p(-np.minimum(u, 1.0 - 1e-16))
    else:
        raise ValueError(f"unknown distribution {distribution!r}")
    return g.with_weights(w, name=name or f"{g.name}-w{distribution}")
