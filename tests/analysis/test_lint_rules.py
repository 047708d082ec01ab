"""Per-rule lint tests: each rule catches a minimal violating snippet and
passes the conforming twin — plus the repo-wide clean gate."""

import json
import textwrap

import pytest

from repro.analysis import RULES, format_findings, run_lint
from repro.analysis.lint import Finding, repo_paths


def _tree(tmp_path, files):
    """Materialize a synthetic ``src/repro`` tree and return its root."""
    for rel, source in files.items():
        path = tmp_path / "src" / "repro" / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    (tmp_path / "tests").mkdir(exist_ok=True)
    return tmp_path


def _on(findings, rel):
    """The findings landing in one synthetic file."""
    return [f for f in findings if f.path.endswith(rel)]


class TestHotLoopAlloc:
    def test_banned_np_allocators_caught(self, tmp_path):
        root = _tree(tmp_path, {"kernels/mod.py": """\
            import numpy as np

            # repro: hot
            def relax(xs):
                buf = np.zeros(8)
                idx = np.arange(len(xs))
                return np.concatenate([buf, idx])
            """})
        found = _on(run_lint(select=["hot-loop-alloc"], root=root), "kernels/mod.py")
        assert {f.line for f in found} == {5, 6, 7}
        assert all("allocates in a hot block" in f.message for f in found)

    def test_comprehensions_and_concat_caught(self, tmp_path):
        root = _tree(tmp_path, {"kernels/mod.py": """\
            # repro: hot
            def relax(xs, ys):
                squares = [x * x for x in xs]
                merged = squares + list(ys)
                return {x: 1 for x in merged}
            """})
        found = _on(run_lint(select=["hot-loop-alloc"], root=root), "kernels/mod.py")
        kinds = sorted(f.message.split(" allocates")[0] for f in found)
        assert kinds == ["`+`-concatenation", "dict comprehension", "list comprehension"]

    def test_conforming_hot_block_passes(self, tmp_path):
        root = _tree(tmp_path, {"kernels/mod.py": """\
            import numpy as np

            _EMPTY = np.empty(0, dtype=np.int64)

            # repro: hot
            def relax(ws, xs, dist):
                if not len(xs):
                    return _EMPTY
                flat, lengths, buf = ws.wave_buffers(len(xs))
                np.minimum(dist, buf[: len(xs)], out=dist)
                return flat
            """})
        assert _on(run_lint(select=["hot-loop-alloc"], root=root), "kernels/mod.py") == []

    def test_alloc_ok_suppresses_own_and_next_line(self, tmp_path):
        root = _tree(tmp_path, {"kernels/mod.py": """\
            import numpy as np

            # repro: hot
            def relax(n):
                a = np.zeros(n)  # repro: alloc-ok — documented fallback
                # repro: alloc-ok — regrowth, amortized away
                b = np.arange(n)
                return a, b
            """})
        assert _on(run_lint(select=["hot-loop-alloc"], root=root), "kernels/mod.py") == []

    def test_code_outside_markers_is_free(self, tmp_path):
        root = _tree(tmp_path, {"kernels/mod.py": """\
            import numpy as np

            # repro: hot
            def relax(ws):
                return ws.pop()

            def setup(n):
                return np.zeros(n)  # cold path: allocation is fine
            """})
        assert _on(run_lint(select=["hot-loop-alloc"], root=root), "kernels/mod.py") == []

    def test_relax_workspace_class_is_whitelisted(self, tmp_path):
        root = _tree(tmp_path, {"kernels/mod.py": """\
            import numpy as np

            # repro: hot
            class RelaxWorkspace:
                def grow(self, n):
                    self.buf = np.empty(n)
            """})
        assert _on(run_lint(select=["hot-loop-alloc"], root=root), "kernels/mod.py") == []

    def test_hot_files_must_carry_markers(self, tmp_path):
        root = _tree(tmp_path, {"sssp/fused.py": """\
            def relax():
                return 0
            """})
        found = run_lint(select=["hot-loop-alloc"], root=root)
        # the marker-less known-hot file is flagged, so the contract
        # cannot rot away by deleting comments
        assert any(f.path.endswith("sssp/fused.py")
                   and "no `# repro: hot` markers" in f.message for f in found)

    def test_repo_hot_files_all_marked(self):
        found = run_lint(select=["hot-loop-alloc"])
        assert found == [], format_findings(found)


class TestRecorderGuard:
    def test_unguarded_call_caught(self, tmp_path):
        root = _tree(tmp_path, {"sssp/mod.py": """\
            def solve(graph, recorder=None):
                recorder.inc("solves")
                return graph
            """})
        found = _on(run_lint(select=["recorder-guard"], root=root), "sssp/mod.py")
        assert len(found) == 1 and "unguarded `recorder.inc(...)`" in found[0].message

    def test_guard_idioms_pass(self, tmp_path):
        root = _tree(tmp_path, {"sssp/mod.py": """\
            def solve(graph, recorder=None, rec=None):
                if recorder:
                    recorder.inc("solves")
                if rec is not None:
                    with rec.span("solve"):
                        pass
                span = rec.span("phase") if rec else None
                rec and rec.observe("lat", 1.0)
                if recorder is None:
                    return graph
                recorder.set_gauge("depth", 2)
                return graph

            def flush(self, metrics=None):
                if not metrics:
                    return 0
                metrics.observe("flush", 1.0)
                return 1

            class S:
                def step(self):
                    if self._recorder is not None:
                        self._recorder.instant("step")
            """})
        assert _on(run_lint(select=["recorder-guard"], root=root), "sssp/mod.py") == []

    def test_compound_early_return_guards(self, tmp_path):
        # `if rec is None or log is None: return` — the test being falsy
        # implies rec is bound, so everything after it is guarded
        root = _tree(tmp_path, {"sssp/mod.py": """\
            def log_slow(rec=None, log=None):
                if rec is None or log is None:
                    return
                rec.inc("slow", 1)
                rec.observe("lat", 2.0)
            """})
        assert _on(run_lint(select=["recorder-guard"], root=root), "sssp/mod.py") == []

    def test_compound_early_return_without_receiver_still_caught(self, tmp_path):
        root = _tree(tmp_path, {"sssp/mod.py": """\
            def log_slow(rec=None, log=None):
                if log is None or log.closed:
                    return
                rec.inc("slow", 1)
            """})
        found = _on(run_lint(select=["recorder-guard"], root=root), "sssp/mod.py")
        assert len(found) == 1 and "rec.inc" in found[0].message

    def test_self_attribute_receiver_caught(self, tmp_path):
        root = _tree(tmp_path, {"service/mod.py": """\
            class S:
                def step(self):
                    self._metrics.observe("lat", 1.0)
            """})
        found = _on(run_lint(select=["recorder-guard"], root=root), "service/mod.py")
        assert len(found) == 1 and "_metrics.observe" in found[0].message

    def test_unrelated_receivers_ignored(self, tmp_path):
        root = _tree(tmp_path, {"sssp/mod.py": """\
            def solve(tracer):
                tracer.span("x")       # not a recorder-ish name
                histogram.observe(1.0)  # nor this
            """})
        assert _on(run_lint(select=["recorder-guard"], root=root), "sssp/mod.py") == []


class TestExportHygiene:
    def test_missing_all_in_init_caught(self, tmp_path):
        root = _tree(tmp_path, {"pkg/__init__.py": """\
            from .core import thing
            """})
        found = _on(run_lint(select=["export-hygiene"], root=root), "pkg/__init__.py")
        assert any("declares no __all__" in f.message for f in found)

    def test_unbound_and_duplicate_exports_caught(self, tmp_path):
        root = _tree(tmp_path, {"pkg/__init__.py": """\
            __all__ = ["solve", "solve", "ghost"]

            def solve():
                return 1
            """})
        messages = [f.message for f in
                    _on(run_lint(select=["export-hygiene"], root=root), "pkg/__init__.py")]
        assert any("lists 'solve' twice" in m for m in messages)
        assert any("exports 'ghost' but the module never binds it" in m for m in messages)

    def test_reexport_missing_from_all_caught(self, tmp_path):
        root = _tree(tmp_path, {
            "pkg/__init__.py": """\
                from .core import solve, helper

                __all__ = ["solve"]
                """,
            "pkg/core.py": """\
                def solve():
                    return 1

                def helper():
                    return 2
                """,
        })
        found = _on(run_lint(select=["export-hygiene"], root=root), "pkg/__init__.py")
        assert len(found) == 1
        assert "'helper' is re-exported from .core but missing from __all__" in found[0].message

    def test_lazy_getattr_exports_pass(self, tmp_path):
        root = _tree(tmp_path, {"pkg/__init__.py": """\
            __all__ = ["core", "extras"]

            def __getattr__(name):
                import importlib

                return importlib.import_module(f".{name}", __name__)
            """})
        assert _on(run_lint(select=["export-hygiene"], root=root), "pkg/__init__.py") == []

    def test_private_and_star_names_exempt(self, tmp_path):
        root = _tree(tmp_path, {"pkg/__init__.py": """\
            from .core import _internal, solve

            __all__ = ["solve"]
            """})
        assert _on(run_lint(select=["export-hygiene"], root=root), "pkg/__init__.py") == []


class TestRegistrySpec:
    def test_repo_registries_and_specs_agree(self):
        found = run_lint(select=["registry-spec"])
        assert found == [], format_findings(found)

    def test_unparsable_registry_key_caught(self):
        from repro.stepping import STEPPERS

        STEPPERS["bad key("] = STEPPERS["delta"]
        try:
            found = run_lint(select=["registry-spec"])
        finally:
            del STEPPERS["bad key("]
        assert any("'bad key(' is not expressible" in f.message for f in found)

    def test_untested_registry_entry_caught(self):
        from repro.shard.partition import PARTITIONERS

        # built dynamically: a quoted literal here would itself count as
        # the test reference the rule scans for
        key = "zz-" + "unref"
        PARTITIONERS[key] = PARTITIONERS["contiguous"]
        try:
            found = run_lint(select=["registry-spec"])
        finally:
            del PARTITIONERS[key]
        assert any(f"{key!r} has no test referencing" in f.message
                   for f in found)

    def test_bad_candidate_knob_values_caught(self):
        from repro.analysis.lint import _spec_param_findings
        from repro.kernels import KERNELS
        from repro.shard.exchange import TRANSPORTS
        from repro.shard.partition import PARTITIONERS

        findings = []
        _spec_param_findings(
            "x.py", 1, "delta(kernel=warp)", {"kernel": "warp"},
            KERNELS, PARTITIONERS, TRANSPORTS, findings)
        _spec_param_findings(
            "x.py", 2, "sharded(partitioner=metis)", {"partitioner": "metis"},
            KERNELS, PARTITIONERS, TRANSPORTS, findings)
        _spec_param_findings(
            "x.py", 3, "sharded(transport=mpi:4)", {"transport": "mpi:4"},
            KERNELS, PARTITIONERS, TRANSPORTS, findings)
        assert [f.line for f in findings] == [1, 2, 3]
        assert "unregistered kernel 'warp'" in findings[0].message
        assert "unregistered partitioner 'metis'" in findings[1].message
        assert "unregistered transport 'mpi:4'" in findings[2].message

    def test_transport_thread_count_suffix_allowed(self):
        from repro.analysis.lint import _spec_param_findings
        from repro.kernels import KERNELS
        from repro.shard.exchange import TRANSPORTS
        from repro.shard.partition import PARTITIONERS

        findings = []
        _spec_param_findings(
            "x.py", 1, "sharded(transport=threads:4)", {"transport": "threads:4"},
            KERNELS, PARTITIONERS, TRANSPORTS, findings)
        assert findings == []


class TestDriver:
    def test_whole_repo_is_clean(self):
        found = run_lint()
        assert found == [], format_findings(found)

    def test_unknown_rule_enumerates_registry(self):
        with pytest.raises(ValueError, match="hot-loop-alloc"):
            run_lint(select=["no-such-rule"])

    def test_findings_sorted_and_rendered(self):
        f = Finding("hot-loop-alloc", "src/repro/x.py", 3, "boom")
        assert f.render() == "src/repro/x.py:3: [hot-loop-alloc] boom"
        assert f.as_dict()["line"] == 3

    def test_format_text_and_json(self):
        f = Finding("recorder-guard", "a.py", 1, "msg")
        text = format_findings([f])
        assert "a.py:1: [recorder-guard] msg" in text and "1 finding(s)" in text
        assert format_findings([]) == "repro lint: clean (0 findings)"
        payload = json.loads(format_findings([f], fmt="json"))
        assert payload["count"] == 1
        assert payload["findings"][0]["rule"] == "recorder-guard"
        with pytest.raises(ValueError, match="known: text, json"):
            format_findings([], fmt="yaml")

    def test_rule_registry_matches_descriptions(self):
        assert set(RULES) == {
            "hot-loop-alloc", "recorder-guard", "registry-spec",
            "export-hygiene",
        }
        assert all(isinstance(v, str) and v for v in RULES.values())

    def test_repo_paths_resolve(self):
        root, pkg, tests = repo_paths()
        assert (pkg / "analysis" / "lint.py").is_file()
        assert pkg.parent.parent == root and tests.name == "tests"
