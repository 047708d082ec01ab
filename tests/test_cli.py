"""Unit tests for the CLI (argument parsing + command handlers)."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_fig3_defaults(self):
        args = build_parser().parse_args(["fig3"])
        assert args.suite == "ci"
        assert args.repeats == 3

    def test_fig4_flags(self):
        args = build_parser().parse_args(["fig4", "--threads", "2", "4", "8"])
        assert args.threads == [2, 4, 8]
        assert build_parser().parse_args(["fig4"]).threads == [2, 4]
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig4", "--real"])

    def test_run_arguments(self):
        args = build_parser().parse_args(["run", "ci-ws", "--stepper", "capi", "--delta", "2.0"])
        assert args.graph == "ci-ws"
        assert args.stepper == "capi"
        assert args.delta == 2.0

    def test_query_arguments(self):
        args = build_parser().parse_args(["query", "ci-ws", "--source", "3", "--target", "9"])
        assert args.graph == "ci-ws"
        assert (args.source, args.target) == (3, 9)
        assert args.repeat == 2

    def test_serve_bench_defaults(self):
        args = build_parser().parse_args(["serve-bench"])
        assert args.suite == "ci"
        assert args.queries == 64
        assert args.stepper is None and not args.auto

    def test_stepper_flags(self):
        args = build_parser().parse_args(["run", "ci-ws", "--stepper", "rho"])
        assert args.stepper == "rho"
        args = build_parser().parse_args(["query", "ci-ws", "--auto"])
        assert args.auto

    def test_step_bench_defaults(self):
        args = build_parser().parse_args(["step-bench"])
        assert args.suite == "ci"
        assert args.repeats == 3
        assert not args.smoke

    def test_shard_bench_defaults(self):
        args = build_parser().parse_args(["shard-bench"])
        assert args.suite == "ci"
        assert args.shards == [2, 4]
        assert args.partitioners is None
        assert args.transport == "threads"
        assert not args.smoke

    def test_kernel_bench_defaults(self):
        args = build_parser().parse_args(["kernel-bench"])
        assert args.suite == "ci"
        assert args.repeats == 5
        assert not args.smoke

    def test_shard_bench_flags(self):
        args = build_parser().parse_args(
            ["shard-bench", "--shards", "2", "8", "--partitioners", "bfs",
             "--transport", "inline", "--smoke"]
        )
        assert args.shards == [2, 8]
        assert args.partitioners == ["bfs"]
        assert args.transport == "inline"
        assert args.smoke


class TestCommands:
    def test_run_command(self, capsys):
        assert main(["run", "ci-ws", "--verify"]) == 0
        out = capsys.readouterr().out
        assert "reached" in out
        assert "verified" in out

    def test_run_command_weighted(self, capsys):
        assert main(["run", "ci-ws", "--weights", "uniform", "--stepper", "delta"]) == 0
        assert "method" in capsys.readouterr().out

    @pytest.mark.parametrize("stepper", ["capi", "delta", "graphblas", "meyer-sanders", "parallel"])
    def test_run_each_paper_formulation_verified(self, capsys, stepper):
        assert main(["run", "ci-ws", "--stepper", stepper, "--verify"]) == 0
        assert "verified" in capsys.readouterr().out

    def test_suite_command(self, capsys):
        assert main(["suite", "--suite", "ci"]) == 0
        out = capsys.readouterr().out
        assert "ci-ws" in out
        assert "|V|" in out

    def test_translate_command(self, capsys):
        assert main(["translate"]) == 0
        out = capsys.readouterr().out
        assert "fused_filter" in out
        assert "unfused" in out

    def test_query_point(self, capsys):
        assert main(["query", "ci-ws", "--target", "40"]) == 0
        out = capsys.readouterr().out
        assert "batch solve" in out
        assert "cache" in out  # the repeat is served from cache

    def test_query_one_to_many(self, capsys):
        assert main(["query", "ci-ws", "--repeat", "1"]) == 0
        out = capsys.readouterr().out
        assert "reached" in out

    def test_query_with_landmarks(self, capsys):
        assert main(["query", "ci-ws", "--target", "40", "--landmarks", "3"]) == 0
        assert "landmark bounds" in capsys.readouterr().out

    def test_serve_bench_tiny(self, capsys, monkeypatch):
        import repro.bench.workloads as wl

        monkeypatch.setattr(
            "repro.bench.registry.suite_workloads",
            lambda suite=None, **kw: [wl.workload_for("ci-ws")],
        )
        assert main(["serve-bench", "--queries", "8", "--repeats", "1"]) == 0
        out = capsys.readouterr().out
        assert "service_qps" in out
        assert "verified bit-identical" in out

    def test_run_with_stepper(self, capsys):
        assert main(["run", "ci-ws", "--stepper", "rho", "--verify"]) == 0
        out = capsys.readouterr().out
        assert "rho-stepping" in out
        assert "verified" in out

    def test_run_auto_prints_pick(self, capsys):
        assert main(["run", "ci-ws", "--auto", "--verify"]) == 0
        out = capsys.readouterr().out
        assert "auto-tuned" in out
        assert "verified" in out

    def test_query_with_stepper(self, capsys):
        assert main(["query", "ci-ws", "--target", "40", "--stepper", "delta-star"]) == 0
        assert "batch solve" in capsys.readouterr().out

    def test_steppers_lists_both_registries(self, capsys):
        assert main(["steppers"]) == 0
        out = capsys.readouterr().out
        # every registered stepper and every Δ strategy is enumerated
        from repro.sssp.delta import DELTA_STRATEGIES
        from repro.stepping import STEPPERS

        for name in STEPPERS:
            assert name in out
        for name in ("auto", *DELTA_STRATEGIES):
            assert name in out
        # name, kind and description only: there is no resolve column
        header = next(line.split() for line in out.splitlines() if line.startswith("name "))
        assert header == ["name", "kind", "description"]
        row = next(line.split() for line in out.splitlines() if line.startswith("delta "))
        assert row[:2] == ["delta", "legacy"]

    def test_run_pinned_stepper_beats_auto_flag(self, capsys):
        """--stepper with --auto: the pin wins and no tuned label is printed."""
        assert main(["run", "ci-ws", "--stepper", "radius", "--auto"]) == 0
        out = capsys.readouterr().out
        assert "auto-tuned" not in out
        assert "radius-stepping" in out

    def test_run_delta_ignored_with_warning_for_rho(self, capsys):
        assert main(["run", "ci-ws", "--stepper", "rho", "--delta", "2.0"]) == 0
        captured = capsys.readouterr()
        assert "takes no delta" in captured.err
        assert "rho-stepping" in captured.out

    def test_run_delta_forwarded_to_delta_stepper(self, capsys):
        assert main(["run", "ci-ws", "--stepper", "delta", "--delta", "2.0"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "2.0" in captured.out

    def test_steppers_probe(self, capsys):
        assert main(["steppers", "--probe", "ci-ws"]) == 0
        out = capsys.readouterr().out
        assert "best_stepper ->" in out
        assert "ms_per_source" in out

    def test_step_bench_smoke(self, capsys):
        assert main(["step-bench", "--smoke"]) == 0
        out = capsys.readouterr().out
        assert "bit-identical to Dijkstra" in out
        assert "Auto-tuner pick vs best measured" in out

    def test_shard_bench_smoke(self, capsys):
        assert main(["shard-bench", "--smoke", "--transport", "inline",
                     "--shards", "2", "--partitioners", "contiguous"]) == 0
        out = capsys.readouterr().out
        assert "bit-identical to Dijkstra" in out
        assert "speedup" in out
        assert "entries" in out  # communication-volume column

    def test_kernel_bench_smoke(self, capsys, tmp_path):
        import json
        import os

        assert main(["kernel-bench", "--smoke", "--repeats", "2"]) == 0
        out = capsys.readouterr().out
        assert "bit-identical to Dijkstra" in out
        assert "seed" in out and "scatter" in out
        # the shared writer produced the machine-readable trajectory
        path = os.path.join(os.environ["REPRO_BENCH_DIR"], "BENCH_KERNEL.json")
        payload = json.loads(open(path).read())
        assert payload["experiment"] == "KERNEL"
        assert payload["headline"]["all_verified"] is True
        assert any(r["variant"] == "scatter" for r in payload["rows"])

    def test_run_with_kernel_spec(self, capsys):
        assert main(["run", "ci-ws", "--stepper", "delta(kernel=scatter)", "--verify"]) == 0
        out = capsys.readouterr().out
        assert "verified" in out

    def test_run_with_sharded_spec(self, capsys):
        assert main(["run", "ci-ws", "--stepper",
                     "sharded(shards=3,partitioner=bfs)", "--verify"]) == 0
        out = capsys.readouterr().out
        assert "sharded" in out
        assert "verified" in out

    def test_lint_clean_on_repo(self, capsys):
        assert main(["lint"]) == 0
        assert "repro lint: clean (0 findings)" in capsys.readouterr().out

    def test_lint_select_and_json(self, capsys):
        import json

        assert main(["lint", "--select", "export-hygiene", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"findings": [], "count": 0}

    def test_lint_list_enumerates_rules(self, capsys):
        from repro.analysis import RULES

        assert main(["lint", "--list"]) == 0
        out = capsys.readouterr().out
        for rule in RULES:
            assert rule in out

    def test_lint_unknown_rule_exits_2(self, capsys):
        assert main(["lint", "--select", "nope"]) == 2
        assert "unknown lint rule" in capsys.readouterr().err

    def test_profile_command_tiny(self, capsys, monkeypatch):
        # shrink the suite to one graph to keep the test fast
        import repro.bench.workloads as wl

        monkeypatch.setattr(
            "repro.bench.registry.suite_workloads",
            lambda suite=None, **kw: [wl.workload_for("ci-ws")],
        )
        assert main(["profile", "--suite", "ci"]) == 0
        assert "35-40%" in capsys.readouterr().out


class TestObservabilityCommands:
    def test_report_parser_defaults(self):
        args = build_parser().parse_args(["report"])
        assert args.graph == "ci-ws"
        assert args.stepper == "sharded(shards=4,partitioner=bfs)"
        assert args.fmt == "md"

    def test_bench_diff_parser_defaults(self):
        args = build_parser().parse_args(["bench-diff", "KERNEL", "SHARD"])
        assert args.names == ["KERNEL", "SHARD"]
        assert args.baseline == "."
        assert args.absolute == "auto"
        assert args.time_tolerance == 0.5

    def test_metrics_parser_defaults(self):
        args = build_parser().parse_args(["metrics"])
        assert args.graph == "ci-ws"
        assert args.stepper == "delta"

    def test_report_sharded_run_prints_exchange_ledger(self, capsys):
        assert main(["report", "ci-ws",
                     "--stepper", "sharded(shards=2,partitioner=bfs)",
                     "--queries", "0"]) == 0
        out = capsys.readouterr().out
        assert "## Exchange ledger (per superstep)" in out
        assert "## Time attribution" in out

    def test_report_html_to_file(self, capsys, tmp_path):
        out_path = tmp_path / "report.html"
        assert main(["report", "ci-ws", "--stepper", "delta", "--queries", "2",
                     "--format", "html", "--out", str(out_path)]) == 0
        doc = out_path.read_text()
        assert doc.startswith("<!DOCTYPE html>")
        assert "wrote" in capsys.readouterr().out

    def test_report_from_saved_trace(self, capsys, tmp_path):
        trace = tmp_path / "t.json"
        assert main(["trace", "ci-ws", "--queries", "0",
                     "--out", str(trace)]) == 0
        capsys.readouterr()
        assert main(["report", "--trace", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "## Overview" in out and "## Bucket occupancy" in out

    def test_metrics_command_emits_openmetrics(self, capsys):
        assert main(["metrics", "ci-ws", "--queries", "2"]) == 0
        out = capsys.readouterr().out
        assert out.rstrip().endswith("# EOF")
        assert "repro_service_queries_total 2" in out

    def test_bench_diff_clean_pass_and_injected_regression(self, capsys, tmp_path):
        import json
        from pathlib import Path

        root = Path(__file__).resolve().parents[1]
        committed = root / "BENCH_KERNEL.json"
        fresh = tmp_path / "BENCH_KERNEL.json"
        fresh.write_text(committed.read_text())
        assert main(["bench-diff", "KERNEL", "--baseline", str(root),
                     "--fresh", str(tmp_path), "--no-history"]) == 0
        assert "PASS" in capsys.readouterr().out

        payload = json.loads(committed.read_text())
        for row in payload["rows"]:
            row["ms"] *= 2.0
            row["speedup"] /= 2.0
            row["relax_per_ms"] /= 2.0
        fresh.write_text(json.dumps(payload))
        assert main(["bench-diff", "KERNEL", "--baseline", str(root),
                     "--fresh", str(tmp_path), "--no-history"]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_bench_diff_missing_file_exits_2(self, capsys, tmp_path):
        assert main(["bench-diff", "NOPE", "--baseline", str(tmp_path),
                     "--fresh", str(tmp_path)]) == 2

    def test_bench_diff_record_appends_history(self, capsys, tmp_path):
        import json
        from pathlib import Path

        from repro.bench.history import BenchHistory

        root = Path(__file__).resolve().parents[1]
        fresh = tmp_path / "BENCH_KERNEL.json"
        fresh.write_text((root / "BENCH_KERNEL.json").read_text())
        assert main(["bench-diff", "KERNEL", "--baseline", str(root),
                     "--fresh", str(tmp_path), "--record"]) == 0
        ledger = BenchHistory(tmp_path / "BENCH_HISTORY.jsonl")
        assert len(ledger.entries("KERNEL")) == 1


class TestSLOCommands:
    def test_slo_check_parser_defaults(self):
        args = build_parser().parse_args(["slo-check"])
        assert args.slo == "slo.toml"
        assert args.graph == "ci-ws"
        assert args.queries == 32
        assert args.slow_ms == 25.0
        assert args.inject_latency_ms is None

    def test_report_request_and_slow_flags(self):
        args = build_parser().parse_args(
            ["report", "--request", "q-000001", "--slow-ms", "5.0"])
        assert args.request == "q-000001"
        assert args.slow_ms == 5.0

    def test_trace_flight_smoke_flag(self):
        args = build_parser().parse_args(["trace", "--flight-smoke"])
        assert args.flight_smoke

    def test_slo_check_passes_on_committed_file(self, capsys, tmp_path):
        slow = tmp_path / "slow.jsonl"
        metrics = tmp_path / "metrics.txt"
        assert main(["slo-check", "--graph", "ci-ws", "--queries", "4",
                     "--slow-log-out", str(slow),
                     "--metrics-out", str(metrics)]) == 0
        out = capsys.readouterr().out
        assert "SLO check: PASS" in out
        assert slow.exists()
        text = metrics.read_text()
        assert "repro_slo_query_latency_ok 1" in text
        assert text.rstrip().endswith("# EOF")

    def test_slo_check_injected_breach_exits_1(self, capsys):
        assert main(["slo-check", "--graph", "ci-ws", "--queries", "4",
                     "--inject-latency-ms", "10000"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out

    def test_slo_check_missing_file_exits_2(self, capsys, tmp_path):
        assert main(["slo-check", str(tmp_path / "nope.toml")]) == 2

    def test_slo_check_observes_a_mutation(self, capsys, tmp_path):
        import math

        metrics = tmp_path / "metrics.txt"
        assert main(["slo-check", "--graph", "ci-ws", "--queries", "2",
                     "--metrics-out", str(metrics)]) == 0
        gauges = dict(line.split() for line in metrics.read_text().splitlines()
                      if line.startswith("repro_slo_mutation_latency_p99_ms "))
        # the served run applies one reweight batch, so the check has data
        assert math.isfinite(float(gauges["repro_slo_mutation_latency_p99_ms"]))

    def test_report_filters_by_request(self, capsys, tmp_path):
        trace = tmp_path / "t.json"
        assert main(["trace", "ci-ws", "--queries", "2",
                     "--out", str(trace)]) == 0
        capsys.readouterr()
        assert main(["report", "--trace", str(trace),
                     "--request", "q-000002"]) == 0
        out = capsys.readouterr().out
        assert "request q-000002" in out

    def test_report_renders_slow_query_section(self, capsys):
        assert main(["report", "ci-ws", "--stepper", "delta",
                     "--queries", "2", "--slow-ms", "0"]) == 0
        out = capsys.readouterr().out
        assert "## Slow queries" in out
        assert "q-000001" in out
