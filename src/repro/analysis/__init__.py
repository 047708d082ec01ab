"""``repro.analysis`` — static analysis for the repo's performance conventions.

Five conventions carry this codebase's performance story, and none of
them is visible to a generic linter:

- the relaxation hot loops are **zero-allocation** by contract (PR 5's
  kernel core) — one stray ``np.zeros`` in a marked block silently
  un-does the win;
- telemetry is **one falsy branch** when disabled (PR 6's ``if
  recorder:`` guard idiom) — one unguarded ``recorder.span(...)`` in a
  solver loop raises on the disabled ``recorder=None`` path;
- the ``STEPPERS``/``KERNELS``/``PARTITIONERS`` registries, the stepper
  *spec* mini-language, the CLI help, and the auto-tuner's candidate
  portfolio must all name the same world;
- package ``__init__`` exports (``__all__``) are the public surface the
  README and downstream importers rely on;
- the sharded stepper's shards may only write **their own** vertices
  between exchanges (PR 4's disjoint-write contract) — the invariant a
  future multiprocess transport depends on.

Module map
----------
==================================  =========================================
:mod:`~repro.analysis.lint`         AST lint rules (``hot-loop-alloc``,
                                    ``recorder-guard``, ``registry-spec``,
                                    ``export-hygiene``) behind one
                                    registry (:data:`~repro.analysis.lint.RULES`)
                                    and one driver (``repro lint``)
:mod:`~repro.analysis.racecheck`    write-set race checker for the sharded
                                    path: a tracking transport attributing
                                    every distance write to its shard, per
                                    superstep, plus the disjointness report
==================================  =========================================

Entry points::

    repro lint [--select RULE] [--format json|text]     # the CLI driver

    from repro.analysis import run_lint, check_sharded_run
    findings = run_lint()                               # [] when clean
    report = check_sharded_run(graph, source, num_shards=4)
    assert report.ok
"""

from __future__ import annotations

from .lint import Finding, RULES, format_findings, run_lint
from .racecheck import RaceReport, RaceViolation, WriteTrackingTransport, check_sharded_run

__all__ = [
    "Finding",
    "RULES",
    "format_findings",
    "run_lint",
    "RaceReport",
    "RaceViolation",
    "WriteTrackingTransport",
    "check_sharded_run",
]
