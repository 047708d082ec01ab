"""repro — reproduction of "Delta-stepping SSSP: from Vertices and Edges to
GraphBLAS Implementations" (Sridhar et al., IPDPSW 2019).

Top-level surface:

- :mod:`repro.graphblas` — pure-Python/NumPy GraphBLAS (the substrate).
- :mod:`repro.ir` — the paper's vertex/edge→linear-algebra translation layer.
- :mod:`repro.graphs` — graph container, generators, datasets, IO.
- :mod:`repro.kernels` — the shared relaxation-kernel core: per-target
  min kernels (argsort / O(m) scatter-min), the reusable
  ``RelaxWorkspace`` arena, and the lazy ``BucketQueue``
  (``repro-sssp kernel-bench``).
- :mod:`repro.sssp` — the four delta-stepping implementations + baselines.
- :mod:`repro.stepping` — the generalized stepping-algorithm framework
  (ρ/radius/Δ* + registry + per-graph auto-tuner).
- :mod:`repro.shard` — graph partitioners + the partition-parallel
  sharded stepper with per-step frontier exchange
  (``repro-sssp shard-bench``).
- :mod:`repro.service` — the distance-query service layer: multi-source
  batch SSSP engine, LRU distance cache, ALT-style landmark bounds, and
  the coalescing query server (``repro-sssp query`` / ``serve-bench``).
- :mod:`repro.dynamic` — graph mutation batches + incremental SSSP
  repair (``repro-sssp mutate-bench``).
- :mod:`repro.parallel` — OpenMP-task-like runtime (worker pool + chunking).
- :mod:`repro.algorithms` — further algorithms built with the methodology.
- :mod:`repro.bench` — harness regenerating every figure in the paper.

Quickstart::

    import repro

    g = repro.datasets.load("roadgrid-small")
    result = repro.sssp.delta_stepping(g, source=0, delta=1.0)
    print(result.distances[:10])
"""

from .version import __version__

__all__ = [
    "__version__",
    "graphblas",
    "graphs",
    "datasets",
    "kernels",
    "sssp",
    "stepping",
    "shard",
    "service",
    "dynamic",
    "ir",
    "parallel",
    "algorithms",
    "bench",
]


def __getattr__(name):
    """Lazy subpackage loading so ``import repro`` stays light."""
    import importlib

    if name in {"graphblas", "graphs", "kernels", "sssp", "stepping", "shard", "service", "dynamic", "ir", "parallel", "algorithms", "bench"}:
        return importlib.import_module(f".{name}", __name__)
    if name == "datasets":
        return importlib.import_module(".graphs.datasets", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
