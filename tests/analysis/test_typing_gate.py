"""The mypy --strict gate over the contract-bearing core modules.

The gate targets (``repro.kernels``, ``repro.obs``,
``repro.stepping.base``, ``repro.shard.exchange``, ``repro.faults``)
carry the zero-alloc, telemetry, spec, transport, and fault-recovery
contracts the rest of the repo builds on; ``mypy.ini`` pins the
configuration and CI runs the same invocation.  mypy itself is not
baked into the offline image, so the strict run skips locally when it
is unavailable — the marker/config tests always run.
"""

import configparser

import pytest

from repro.analysis.lint import repo_paths

GATE_TARGETS = (
    "src/repro/kernels",
    "src/repro/obs",
    "src/repro/stepping/base.py",
    "src/repro/shard/exchange.py",
    "src/repro/faults",
)


class TestGateArtifacts:
    def test_py_typed_marker_shipped(self):
        root, pkg, _ = repo_paths()
        assert (pkg / "py.typed").is_file()
        # and setup.py actually packages it (beside the compiled loop's C source)
        assert (
            'package_data={"repro": ["py.typed", "kernels/buckets.c"]}'
            in (root / "setup.py").read_text()
        )

    def test_mypy_config_pins_strict_gate(self):
        root, _, _ = repo_paths()
        cfg = configparser.ConfigParser()
        cfg.read(root / "mypy.ini")
        assert cfg.getboolean("mypy", "strict")
        assert cfg.get("mypy", "mypy_path") == "src"
        # the non-gate subsystems stay explicitly out of scope
        for skipped in ("mypy-repro.graphs.*", "mypy-repro.sssp.*", "mypy-repro.parallel.*"):
            assert cfg.getboolean(skipped, "ignore_errors")

    def test_gate_targets_exist(self):
        root, _, _ = repo_paths()
        for target in GATE_TARGETS:
            assert (root / target).exists(), target


class TestStrictRun:
    def test_gate_modules_are_strict_clean(self):
        mypy_api = pytest.importorskip(
            "mypy.api", reason="mypy not installed in this environment; CI runs the gate"
        )
        root, _, _ = repo_paths()
        stdout, stderr, status = mypy_api.run([
            "--config-file", str(root / "mypy.ini"),
            *(str(root / t) for t in GATE_TARGETS),
        ])
        assert status == 0, f"mypy --strict gate failed:\n{stdout}\n{stderr}"
