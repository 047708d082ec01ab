"""Generalized stepping algorithms: the Δ ↔ ρ ↔ radius spectrum, unified.

The paper positions Δ-stepping between Dijkstra (Δ → min weight) and
Bellman–Ford (Δ → ∞); this package generalizes that one dial into an
algorithm *portfolio* behind a single step/relax contract, plus a tuner
that picks per graph.  It is the repo's pluggable-algorithm surface:
backends register here and every consumer — service planner, batch
engine, CLI, STEP bench — picks them up for free.  The
partition-parallel sharded backend (:mod:`repro.shard`) registers as
``"sharded"``; GPU and multi-machine steppers are the next plug-ins.
Incremental repair is not a consumer: it always re-relaxes with the
``delta`` stepper's Δ-bucket loop (:mod:`repro.dynamic.incremental`).

Module map
----------
=====================================  =======================================
:mod:`~repro.stepping.base`            the :class:`Stepper` contract
                                       (solve/resolve), the one windowed
                                       step/relax loop
                                       (:func:`window_resolve` over
                                       :func:`relax_window`), and the
                                       :data:`STEPPERS` registry every
                                       consumer enumerates
:mod:`~repro.stepping.rho_stepping`    ρ-stepping's select rule: the ρ
                                       nearest active vertices per step
:mod:`~repro.stepping.radius_stepping` radius-stepping's select rule:
                                       per-vertex k-radius precompute
                                       bounds each step
:mod:`~repro.stepping.delta_star`      Δ*-stepping's select rule: a
                                       sliding window with lazy
                                       Bellman–Ford batching inside
:mod:`~repro.stepping.autotune`        sampling auto-tuner: probe the
                                       portfolio, fit per-graph costs,
                                       expose the best pick
=====================================  =======================================

Entry points::

    from repro.stepping import get_stepper, solve_with, AutoTuner

    res = solve_with("rho", graph, source=0)          # any registry name
    pick = AutoTuner().best_stepper(graph)            # tuned per graph
    res = solve_with(pick, graph, source=0)

The paper's five formulations are registered alongside the new steppers
("meyer-sanders", "graphblas", "capi", "delta" = the fused kernel,
"parallel"), as are the "dijkstra" and "bellman-ford" baselines, so
:data:`STEPPERS` is the one solver registry: ``repro run --stepper``,
:func:`repro.sssp.delta_stepping` and the service's batches all look up here.
"""

from __future__ import annotations

from ..sssp.capi_sssp import capi_delta_stepping
from ..sssp.fused import fused_delta_stepping
from ..sssp.graphblas_sssp import graphblas_delta_stepping
from ..sssp.meyer_sanders import meyer_sanders_delta_stepping
from ..sssp.parallel import parallel_delta_stepping
from ..sssp.reference import bellman_ford, dijkstra
from ..sssp.result import SSSPResult
from .autotune import DEFAULT_CANDIDATES, AutoTuner, ProbeRow, TuningReport, best_stepper
from .base import (
    STEPPERS,
    FunctionStepper,
    Stepper,
    format_known,
    get_stepper,
    parse_stepper_spec,
    register_stepper,
    resolve_stepper_spec,
    stepper_names,
)
from .delta_star import DeltaStarStepper, default_delta_star, delta_star_stepping
from .radius_stepping import RadiusStepper, radius_stepping, vertex_radii
from .rho_stepping import RhoStepper, default_rho, rho_stepping

__all__ = [
    "Stepper",
    "FunctionStepper",
    "STEPPERS",
    "register_stepper",
    "get_stepper",
    "stepper_names",
    "format_known",
    "parse_stepper_spec",
    "resolve_stepper_spec",
    "solve_with",
    "rho_stepping",
    "default_rho",
    "RhoStepper",
    "radius_stepping",
    "vertex_radii",
    "RadiusStepper",
    "delta_star_stepping",
    "default_delta_star",
    "DeltaStarStepper",
    "AutoTuner",
    "TuningReport",
    "ProbeRow",
    "DEFAULT_CANDIDATES",
    "best_stepper",
]


def solve_with(stepper: str, graph, source: int, **params) -> SSSPResult:
    """Run SSSP with any registered stepper: ``solve_with("rho", g, 0)``.

    *stepper* may be a bare registry name or a parameterized spec like
    ``"sharded(shards=4, partitioner=bfs)"`` (explicit ``**params`` win
    over spec params).
    """
    s, spec_params = resolve_stepper_spec(stepper)
    return s.solve(graph, source, **{**spec_params, **params})


# -- registry assembly: new framework members + adopted legacy solvers -------

register_stepper(RhoStepper())
register_stepper(RadiusStepper())
register_stepper(DeltaStarStepper())
# the paper's formulations advertise the Δ knob as defaults={"delta": None};
# FunctionStepper resolves None through choose_delta
register_stepper(FunctionStepper(
    "delta", fused_delta_stepping,
    description="classic fixed-grid delta-stepping, fused kernel (the paper's fast impl.)",
    defaults={"delta": None},
    kernel_capable=True,  # "delta(kernel=scatter)" pins the min-by-target kernel
    recorder_capable=True,  # emits per-bucket spans and its §VI.C stages
))
register_stepper(FunctionStepper(
    "graphblas", graphblas_delta_stepping,
    description="classic delta-stepping, unfused GraphBLAS formulation (Fig. 2)",
    defaults={"delta": None},
    recorder_capable=True,
))
register_stepper(FunctionStepper(
    "meyer-sanders", meyer_sanders_delta_stepping,
    description="canonical vertices/edges/buckets delta-stepping (Fig. 1 right)",
    defaults={"delta": None},
))
register_stepper(FunctionStepper(
    "capi", capi_delta_stepping,
    description="line-by-line Fig. 2 transliteration on the GrB_* C facade",
    defaults={"delta": None},
))
register_stepper(FunctionStepper(
    "parallel", parallel_delta_stepping,
    description="OpenMP-task-style chunked parallel fused delta-stepping (Fig. 4)",
    defaults={"delta": None},
))
register_stepper(FunctionStepper(
    "dijkstra", dijkstra,
    description="binary-heap Dijkstra oracle (Python loop; trusted, slow)",
))
register_stepper(FunctionStepper(
    "bellman-ford", bellman_ford,
    description="edge-centric Bellman-Ford, one vectorized wave per round",
    kernel_capable=True,
))

# the sharded backend registers itself at the bottom of its module; the
# import order is cycle-safe from either entry point because this line
# runs after every stepping submodule the shard package depends on
from ..shard import stepper as _shard_stepper  # noqa: E402,F401  (registration side effect)
