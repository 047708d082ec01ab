"""The breaker drill: one scripted degraded-serving episode."""

from repro.cli import main
from repro.faults.harness import run_breaker_drill


class TestBreakerDrill:
    def test_drill_passes_every_check(self):
        drill = run_breaker_drill()
        assert drill["ok"], drill
        for key in (
            "failure_degrades", "breaker_trips", "second_failure_degrades",
            "mutation_shed", "failed_probe_reopens", "recovery_exact",
        ):
            assert drill["checks"][key], key

    def test_cli_writes_the_service_series(self, tmp_path, capsys):
        out = tmp_path / "chaos-metrics.txt"
        assert main(["chaos", "--metrics-out", str(out)]) == 0
        text = out.read_text()
        for series in (
            "repro_service_degraded_answers_total",
            "repro_service_mutations_shed_total",
            "repro_service_breaker_state",
        ):
            assert series in text, series
        assert "all checks passed" in capsys.readouterr().out
