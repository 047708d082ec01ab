"""The stepping-algorithm contract and its registry.

The paper treats Δ-stepping as a single algorithm; Dong, Gu, Sun & Zhang
("Efficient Stepping Algorithms and Implementations for Parallel Shortest
Paths", 2021) show it is one point in a *family*: every member repeats

1. **step** — pick a batch of active vertices (a bucket, the ρ nearest,
   a radius-bounded range …) and a bound;
2. **relax** — generate the batch's relaxation requests, min-merge them
   into the tentative distances, and re-relax improvements at or below
   the bound until quiescent;
3. park the improvements above the bound in the active mask.

:func:`window_resolve` is that loop, written once: ρ-, Δ*- and
radius-stepping each hand it only a ``select(mask) -> (batch, bound)``
rule, and every shard of the sharded stepper runs its inner half,
:func:`relax_window`, on its own CSR slice.

:class:`Stepper` pins the loop down as an interface: :meth:`Stepper.solve`
is a fresh single-source run.  The framework members (ρ, Δ*, radius and
the sharded stepper) also implement :meth:`Stepper.resolve`, *run the
schedule from an arbitrary seeded state* — tentative distances plus an
active mask — to quiescence, and their ``solve`` is ``resolve`` seeded
with ``{source: 0}``.  (Incremental repair does not go through this
interface: it seeds the fused solver's Δ-bucket loop directly, see
:mod:`repro.dynamic.incremental`.)  The paper's five Δ-stepping
formulations (Meyer–Sanders, the GraphBLAS form, its C-facade
transliteration, the fused kernel, the task-parallel kernel) and the
Dijkstra/Bellman–Ford baselines are wrapped as steppers too, so
:data:`STEPPERS` is the repo's one solver registry and the auto-tuner
(:mod:`repro.stepping.autotune`) can race any of it.

Discovery follows the ``DELTA_STRATEGIES`` idiom of
:mod:`repro.sssp.delta`: one module-level registry (:data:`STEPPERS`),
one accessor (:func:`get_stepper`) whose ``ValueError`` enumerates every
member, and one CLI (``repro steppers --list``) rendering the same table.
"""

from __future__ import annotations

import numbers
from abc import ABC, abstractmethod
from typing import Any, Callable, Iterable

import numpy as np
from numpy.typing import NDArray

from ..graphs.graph import Graph
from ..kernels import (
    RelaxWorkspace,
    check_kernel,
    gather_candidates,
    min_by_target,
)
from ..sssp.delta import choose_delta
from ..sssp.result import INF, SSSPResult

__all__ = [
    "Stepper",
    "FunctionStepper",
    "STEPPERS",
    "register_stepper",
    "get_stepper",
    "stepper_names",
    "format_known",
    "relax_wave",
    "relax_window",
    "window_resolve",
    "int_knob",
    "positive_knob",
    "new_counters",
    "parse_stepper_spec",
    "resolve_stepper_spec",
]


def format_known(names: Iterable[str]) -> str:
    """Render a registry's keys for an error message (shared idiom with
    :func:`repro.sssp.delta.choose_delta`)."""
    return ", ".join(names)


def new_counters() -> dict[str, Any]:
    """A fresh work-counter dict in :class:`~repro.sssp.result.SSSPResult`
    vocabulary: ``steps`` are outer batches (buckets for Δ-steppers),
    ``phases`` inner relaxation waves."""
    return {"steps": 0, "phases": 0, "relaxations": 0, "updates": 0}


#: ``(targets, candidates) -> (targets, candidates)``: a relax wave's
#: routing hook, applied between the gather and the per-target min (the
#: sharded step keeps its owned targets and posts the rest to its outbox)
Route = Callable[
    [NDArray[np.int64], NDArray[np.float64]],
    tuple[NDArray[np.int64], NDArray[np.float64]],
]

#: ``select(active mask) -> (batch, bound)``: the step rule a stepper
#: hands :func:`window_resolve`
Select = Callable[[NDArray[np.bool_]], tuple[NDArray[np.int64], float]]


def int_knob(name: str, value: Any, minimum: int = 1) -> int:
    """Validate an integer stepper knob, naming it in the ``ValueError``
    (a spec like ``"rho(rho=2.5)"`` must not fail ten frames down in
    NumPy)."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    k = int(value)
    if k < minimum:
        raise ValueError(f"{name} must be >= {minimum}")
    return k


def positive_knob(name: str, value: Any) -> float:
    """Validate a positive real stepper knob (Δ), naming it in the
    ``ValueError``."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise ValueError(f"{name} must be a number, got {value!r}")
    x = float(value)
    if not x > 0:
        raise ValueError(f"{name} must be positive")
    return x


def relax_wave(
    indptr: NDArray[np.int64],
    indices: NDArray[np.int64],
    weights: NDArray[np.float64],
    frontier: NDArray[np.int64],
    dist: NDArray[np.float64],
    counters: dict[str, Any],
    workspace: RelaxWorkspace | None = None,
    kernel: str = "auto",
    recorder: Any = None,
    route: Route | None = None,
) -> tuple[NDArray[np.int64], NDArray[np.float64]]:
    """One relaxation wave: all requests out of *frontier*, min-merged.

    The shared relax half of the step/relax contract — the same fused
    gather → per-target min → filtered scatter as the paper's kernel
    (:func:`repro.sssp.fused.fused_delta_stepping`), operating in place
    on *dist*.  Both halves run on :mod:`repro.kernels`: *workspace*
    supplies the reusable wave buffers and *kernel* picks the per-target
    min implementation (``auto``/``argsort``/``scatter``).  A *route*
    filters the gathered requests before the min (every request still
    counts as a relaxation).  Returns
    ``(improved_targets, their_new_distances)``.

    This is also the observability choke point shared by every
    framework stepper: a truthy *recorder* (:mod:`repro.obs`) gets one
    ``relax-wave`` span per call carrying the kernel name, wave size,
    and relaxation/touched counts; the disabled path costs one falsy
    check.
    """
    if recorder:
        r0 = counters["relaxations"]
        with recorder.span("relax-wave", kernel=kernel, wave=int(len(frontier))) as sp:
            uts, ubest = _relax_wave(
                indptr, indices, weights, frontier, dist, counters, workspace, kernel, route
            )
            sp.set(relaxations=counters["relaxations"] - r0, touched=int(len(uts)))
        return uts, ubest
    return _relax_wave(
        indptr, indices, weights, frontier, dist, counters, workspace, kernel, route
    )


def _relax_wave(
    indptr: NDArray[np.int64],
    indices: NDArray[np.int64],
    weights: NDArray[np.float64],
    frontier: NDArray[np.int64],
    dist: NDArray[np.float64],
    counters: dict[str, Any],
    workspace: RelaxWorkspace | None,
    kernel: str,
    route: Route | None,
) -> tuple[NDArray[np.int64], NDArray[np.float64]]:
    targets, dists = gather_candidates(indptr, indices, weights, frontier, dist, workspace)
    if targets is None or dists is None:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    counters["relaxations"] += len(targets)
    if route is not None:
        targets, dists = route(targets, dists)
    uts, ubest = min_by_target(targets, dists, workspace=workspace, kernel=kernel)
    improved = ubest < dist[uts]
    uts, ubest = uts[improved], ubest[improved]
    counters["updates"] += len(uts)
    dist[uts] = ubest
    return uts, ubest


def relax_window(
    indptr: NDArray[np.int64],
    indices: NDArray[np.int64],
    weights: NDArray[np.float64],
    batch: NDArray[np.int64],
    bound: float,
    dist: NDArray[np.float64],
    active: NDArray[np.bool_],
    counters: dict[str, Any],
    workspace: RelaxWorkspace | None = None,
    kernel: str = "auto",
    recorder: Any = None,
    route: Route | None = None,
) -> None:
    """Relax *batch*, then re-relax improvements at or below *bound*
    until quiescent; improvements above it are parked in *active*.

    The relax half of every windowed step: one :func:`relax_wave` per
    phase.  ``bound = -inf`` makes it a single wave (ρ-stepping parks
    every improvement for the next step).  *batch* must already be
    cleared from *active*.
    """
    while len(batch):
        counters["phases"] += 1
        improved, new_d = relax_wave(
            indptr, indices, weights, batch, dist, counters, workspace, kernel, recorder,
            route,
        )
        batch = improved[new_d <= bound]
        # park every improvement, then un-park the in-window ones: they
        # re-relax in the next phase, not as pending active entries
        active[improved] = True
        active[batch] = False


def window_resolve(
    graph: Graph,
    dist: NDArray[np.float64],
    active: NDArray[np.bool_],
    select: Select,
    kernel: str = "auto",
    recorder: Any = None,
) -> dict[str, Any]:
    """The step/relax loop from a seeded state to quiescence.

    Each step asks *select* for a batch of active vertices and a bound
    and runs :func:`relax_window` over the whole graph.  *dist* is
    updated in place; *active* is consumed (the loop works on a copy and
    clears it).  Returns the work counters.
    """
    if active.shape != dist.shape:
        raise ValueError("active mask must match the distance array")
    check_kernel(kernel)
    ws = RelaxWorkspace(graph.num_vertices)
    indptr, indices, weights = graph.csr()
    mask = active.astype(bool, copy=True)
    active[:] = False
    counters = new_counters()
    while mask.any():
        counters["steps"] += 1
        batch, bound = select(mask)
        mask[batch] = False
        relax_window(
            indptr, indices, weights, batch, bound, dist, mask, counters, ws, kernel, recorder
        )
    return counters


class Stepper(ABC):
    """One member of the stepping-algorithm family.

    Attributes
    ----------
    name:
        Registry key (also the CLI / bench spelling).
    kind:
        ``"stepping"`` for the generalized-framework solvers and
        ``"sharded"`` for the partition-parallel one (both implement
        :meth:`resolve`), ``"legacy"`` for wrapped pre-framework
        implementations (which own their seeding).
    description:
        One-line summary for ``repro steppers --list``.
    kernel_capable:
        Whether ``solve``/``resolve`` accept a ``kernel=`` keyword
        selecting the :mod:`repro.kernels` per-target-min kernel
        (``"rho(kernel=scatter)"`` in spec spelling); the kernel-
        equivalence tests race every capable stepper under both kernels.

    Every registry member additionally accepts ``recorder=`` on
    ``solve`` (and, where implemented, ``resolve``): a truthy
    :class:`repro.obs.Recorder` receives trace spans and metrics;
    ``None`` is the zero-cost disabled path, and the
    obs test suite pins recorded runs bit-identical to unrecorded ones.
    """

    name: str = "?"
    kind: str = "stepping"
    description: str = ""
    kernel_capable: bool = True
    #: short spec-parameter spellings → the solve() keyword they set
    #: (``"sharded(shards=4)"`` → ``num_shards=4``); consulted by
    #: :func:`resolve_stepper_spec`, empty for most steppers
    spec_param_aliases: dict[str, str] = {}

    @abstractmethod
    def solve(self, graph: Graph, source: int, **params: Any) -> SSSPResult:
        """Fresh single-source run from *source*; *params* are the
        stepper's own knobs (``delta``, ``kernel``, ``recorder`` …)."""

    def resolve(
        self,
        graph: Graph,
        dist: NDArray[np.float64],
        active: NDArray[np.bool_],
        **params: Any,
    ) -> dict[str, Any]:
        """Run the schedule from a seeded state to quiescence.

        *dist* is modified in place; *active* is a boolean mask of
        vertices whose out-edges still need relaxing (consumed).
        Returns the work counters (:func:`new_counters` keys).
        """
        raise NotImplementedError(f"stepper {self.name!r} does not support resolve()")

    def default_params(self, graph: Graph) -> dict[str, Any]:
        """The parameter values a bare ``solve(graph, source)`` will use
        (reported by the bench so runs are reproducible)."""
        return {}

    def _seeded_solve(
        self, graph: Graph, source: int, method: str, **params: Any
    ) -> SSSPResult:
        """``resolve`` seeded with ``{source: 0}``, packaged as a result."""
        n = graph.num_vertices
        if not 0 <= source < n:
            raise IndexError(f"source {source} out of range [0, {n})")
        dist = np.full(n, INF, dtype=np.float64)
        dist[source] = 0.0
        active = np.zeros(n, dtype=bool)
        active[source] = True
        recorder = params.get("recorder")
        if recorder:
            with recorder.span(f"solve:{self.name}", stepper=self.name, source=int(source)):
                counters = self.resolve(graph, dist, active, **params)
        else:
            counters = self.resolve(graph, dist, active, **params)
        return SSSPResult(
            distances=dist,
            source=source,
            delta=float(params.get("delta", float("nan"))),
            method=method,
            buckets_processed=counters["steps"],
            phases=counters["phases"],
            relaxations=counters["relaxations"],
            updates=counters["updates"],
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Stepper<{self.name} ({self.kind})>"


class FunctionStepper(Stepper):
    """A pre-framework solver adopted into the registry.

    Wraps any ``(graph, source, **kw) -> SSSPResult`` callable (the
    paper's formulations, Dijkstra, Bellman–Ford …) so the auto-tuner
    and the CLI can treat the whole portfolio uniformly.  A ``delta`` of
    ``None`` (the default of every Δ-stepping formulation) resolves
    through :func:`repro.sssp.delta.choose_delta`.  The wrapped
    implementation owns its seeding, so :meth:`resolve` is not
    supported.
    """

    kind = "legacy"
    kernel_capable = False

    def __init__(
        self,
        name: str,
        fn: Callable[..., SSSPResult],
        description: str = "",
        defaults: dict[str, Any] | None = None,
        kernel_capable: bool = False,
        recorder_capable: bool = False,
    ) -> None:
        self.name = name
        self.description = description
        self._fn = fn
        self._defaults = dict(defaults or {})
        self.kernel_capable = kernel_capable
        #: whether the wrapped fn takes ``recorder=`` itself (the fused and
        #: GraphBLAS kernels do, emitting their §VI.C stages as spans);
        #: either way a recording run gets one whole-solve span
        self.recorder_capable = recorder_capable

    def solve(self, graph: Graph, source: int, **params: Any) -> SSSPResult:
        kw = {**self._defaults, **params}
        if "delta" in kw and kw["delta"] is None:
            kw["delta"] = choose_delta(graph)
        recorder = kw.pop("recorder", None)
        if recorder and self.recorder_capable:
            kw["recorder"] = recorder
        if not recorder:
            return self._fn(graph, source, **kw)
        with recorder.span(f"solve:{self.name}", stepper=self.name, source=int(source)):
            return self._fn(graph, source, **kw)

    def default_params(self, graph: Graph) -> dict[str, Any]:
        return dict(self._defaults)


#: name → :class:`Stepper`; the one solver registry, shared by
#: :func:`get_stepper`, :func:`repro.sssp.delta_stepping`, the auto-tuner,
#: ``repro run`` / ``repro steppers``, the STEP bench, and the service
#: batch dispatch.
STEPPERS: dict[str, Stepper] = {}


def register_stepper(stepper: Stepper) -> Stepper:
    """Add *stepper* to :data:`STEPPERS` (last registration wins)."""
    STEPPERS[stepper.name] = stepper
    return stepper


def get_stepper(name: str) -> Stepper:
    """Look up a stepper by registry name.

    Raises ``ValueError`` naming every registered algorithm — the same
    contract as :func:`repro.sssp.delta.choose_delta` for Δ strategies.
    """
    try:
        return STEPPERS[name]
    except KeyError:
        raise ValueError(
            f"unknown stepper {name!r}; known: {format_known(STEPPERS)}"
        ) from None


def stepper_names(kind: str | None = None) -> list[str]:
    """Registered stepper names, optionally filtered by ``kind``."""
    return [s.name for s in STEPPERS.values() if kind is None or s.kind == kind]


def _parse_value(text: str) -> int | float | str:
    """A spec parameter value: int, then float, then bare string."""
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def parse_stepper_spec(spec: str) -> tuple[str, dict[str, int | float | str]]:
    """Split a stepper spec into ``(registry name, solve params)``.

    A *spec* is a registry name with optional call-style parameters —
    ``"sharded(shards=4, partitioner=bfs)"`` — the spelling the
    auto-tuner uses to race one algorithm under several configurations
    and the CLI accepts anywhere a stepper name goes.  Values parse as
    int, float, or bare string.  A bare name passes through unchanged
    with empty params; the name is *not* validated here (use
    :func:`resolve_stepper_spec` for lookup + validation).
    """
    spec = spec.strip()
    if "(" not in spec:
        return spec, {}
    name, _, rest = spec.partition("(")
    rest = rest.strip()
    if not rest.endswith(")"):
        raise ValueError(f"malformed stepper spec {spec!r} (missing ')')")
    params: dict[str, int | float | str] = {}
    body = rest[:-1].strip()
    if body:
        for item in body.split(","):
            key, eq, value = item.partition("=")
            if not eq or not key.strip() or not value.strip():
                raise ValueError(
                    f"malformed stepper spec {spec!r} (expected key=value, got {item!r})"
                )
            params[key.strip()] = _parse_value(value.strip())
    return name.strip(), params


def resolve_stepper_spec(spec: str) -> tuple[Stepper, dict[str, int | float | str]]:
    """Look up a spec's stepper and normalize its params.

    Param spellings go through the stepper's own
    :attr:`Stepper.spec_param_aliases`, so short CLI-friendly names
    (``shards=4``) map onto the solve keyword (``num_shards``) without
    the framework hardcoding any stepper's vocabulary.  Raises the same
    registry-enumerating ``ValueError`` as :func:`get_stepper` for
    unknown names.
    """
    name, params = parse_stepper_spec(spec)
    stepper = get_stepper(name)
    aliases = stepper.spec_param_aliases
    return stepper, {aliases.get(k, k): v for k, v in params.items()}
