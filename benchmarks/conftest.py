"""Shared fixtures for the benchmark suite.

Suite selection: ``REPRO_SUITE=ci`` (default, fast) or ``REPRO_SUITE=paper``
(the full Fig. 3/Fig. 4 graph list; takes minutes).  Every benchmark file
regenerates one paper artifact — see the module docstrings.
"""

from __future__ import annotations

import pytest

from repro.bench.workloads import active_suite_name, suite_workloads, workload_for


def suite_params():
    """Parametrization over the active suite's workload names."""
    return [wl.name for wl in suite_workloads(active_suite_name())]


@pytest.fixture(scope="session", params=suite_params())
def workload(request):
    """One workload per suite graph (paper configuration: unit weights, Δ=1)."""
    return workload_for(request.param)


@pytest.fixture(scope="session")
def small_workload():
    """A single small workload for micro-benchmarks."""
    return workload_for("ci-rmat")
