"""Argument-handling tests for the ``python -m repro.bench`` surface.

The underlying parser (``resolve_scenario_selection``) and the
registries' near-miss errors have their own unit tests; these exercise
the CLI itself — exit codes and the error text a user actually sees.
"""

import argparse
import json
import re
from pathlib import Path

import pytest

from repro.bench import figures
from repro.bench import results as results_io
from repro.bench.cli import _scenario_output_path, main
from repro.bench.figures import Claim


#: Flags that reshaped a figure row or a scenario at run time.  An
#: experiment is a row of ``FIGURES`` or ``SCENARIOS``; the CLI picks rows.
REMOVED_FLAGS = [
    ("--policy", "cooperative"), ("--topology", "two-socket"),
    ("--slo-class", "light=1000"), ("--allocator", "queue-depth"),
    ("--admission", "shed-bronze"), ("--shards", "2"),
    ("--routing", "least-loaded"), ("--faults", "retry-storm"),
]


@pytest.mark.parametrize("flag, value", REMOVED_FLAGS)
def test_an_override_flag_is_a_usage_error(flag, value, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["scenarios", "--list", flag, value])
    assert excinfo.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


def test_help_lists_only_the_row_pickers(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--help"])
    assert excinfo.value.code == 0
    options = set(re.findall(r"^\s+(-[-\w]+)", capsys.readouterr().out, re.M))
    assert options == {
        "-h", "--quick", "--scenario", "--jobs", "--list", "--output",
    }


class TestUnknownSubcommand:
    def test_exits_2_and_lists_the_choices(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["fig9"])
        assert excinfo.value.code == 2
        stderr = capsys.readouterr().err
        assert "invalid choice: 'fig9'" in stderr
        assert "scenarios" in stderr

    def test_no_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2


class TestScenarioFlag:
    def test_unknown_scenario_exits_2_with_suggestion(self, capsys):
        assert main(["scenarios", "--scenario", "http-overload-opne"]) == 2
        stderr = capsys.readouterr().err
        assert "unknown scenario 'http-overload-opne'" in stderr
        assert "did you mean 'http-overload-open'?" in stderr

    def test_typo_rejected_before_other_targets_run(self, capsys):
        assert main(["e1", "--quick", "--scenario", "nonsense"]) == 2
        assert "unknown scenario 'nonsense'" in capsys.readouterr().err

    def test_single_scenario_runs_and_writes_schema_valid_json(
        self, tmp_path, capsys
    ):
        out = tmp_path / "BENCH_scenarios.json"
        code = main([
            "scenarios", "--quick",
            "--scenario", "http-closed-baseline",
            "--output", str(out),
        ])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "http-closed-baseline" in stdout
        document = json.loads(out.read_text(encoding="utf-8"))
        assert document["schema_version"] == results_io.SCHEMA_VERSION
        assert list(document["scenarios"]) == ["http-closed-baseline"]

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_a_filtered_quick_run_reproduces_the_committed_entries(
        self, tmp_path, capsys, jobs
    ):
        """A picked quick scenario's entry is byte for byte the committed
        quick document's, in one process or across workers: the same
        identity CI ``cmp``s for the whole matrix."""
        names = ["http-closed-baseline", "memcached-open-replay"]
        out = tmp_path / "picked.json"
        assert main([
            "scenarios", "--quick", "--scenario", ",".join(names),
            "--jobs", jobs, "--output", str(out),
        ]) == 0
        capsys.readouterr()
        committed = json.loads(
            (
                Path(__file__).parent.parent
                / "benchmarks" / "baseline_scenarios.json"
            ).read_text(encoding="utf-8")
        )
        expected = results_io.results_document(
            {name: committed["scenarios"][name] for name in names},
            quick=True,
        )
        assert out.read_text(encoding="utf-8") == json.dumps(
            expected, indent=2, sort_keys=True
        ) + "\n"


@pytest.mark.parametrize(
    "quick, scenario, output, expected",
    [
        (False, "all", None, "BENCH_scenarios.json"),
        (True, "all", None, "BENCH_scenarios.quick.json"),
        (False, "http-closed-baseline", None, "BENCH_scenarios.quick.json"),
        (True, "http-closed-baseline", "mine.json", "mine.json"),
    ],
)
def test_only_a_full_matrix_run_defaults_to_the_trajectory_file(
    quick, scenario, output, expected
):
    args = argparse.Namespace(quick=quick, scenario=scenario, output=output)
    assert _scenario_output_path(args) == expected


class TestClusterFlags:
    def test_list_exits_0_and_prints_every_scenario(self, capsys):
        from repro.bench.scenarios import SCENARIOS

        assert main(["scenarios", "--list"]) == 0
        out = capsys.readouterr().out
        for scenario in SCENARIOS:
            assert scenario.name in out
        # the cluster axes are part of the listing
        assert "shards" in out and "routing" in out

    def test_list_respects_scenario_selection(self, capsys):
        assert main([
            "scenarios", "--list",
            "--scenario", "http-fleet-failover",
        ]) == 0
        out = capsys.readouterr().out
        assert "http-fleet-failover" in out
        assert "http-closed-baseline" not in out

    def test_list_runs_nothing(self, tmp_path, capsys):
        out_path = tmp_path / "never_written.json"
        assert main([
            "scenarios", "--list", "--output", str(out_path),
        ]) == 0
        capsys.readouterr()
        assert not out_path.exists()

    def test_bad_jobs_exits_2(self, capsys):
        assert main(["scenarios", "--quick", "--jobs", "0"]) == 2
        assert "--jobs must be >= 1" in capsys.readouterr().err


GOLDEN = Path(__file__).parent.parent / "benchmarks" / "golden"


class TestFigureTargets:
    def test_fig7_quick_prints_its_golden(self, capsys):
        """Every fig7 row, one blank line apart: the uniform sweep, the
        two-socket one and the four-socket one with service classes."""
        assert main(["fig7", "--quick"]) == 0
        expected = (GOLDEN / "fig7_quick.txt").read_text(encoding="utf-8")
        assert capsys.readouterr().out == expected

    def test_the_socket_rows_add_a_layout_to_fig7_and_no_claims(self):
        """Each adds its topology (and the four-socket one its service
        classes) to Figure 7's sweep at both sizes, and claims nothing."""
        classes = figures.FIG7_FOUR_SOCKET_SLO.size["service_classes"]
        assert classes.class_for("light").name == "gold"
        assert classes.class_for("heavy").slo_us == 50_000.0
        for row, sweep in [
            (figures.FIG7_TWO_SOCKET, {"topology": "two-socket"}),
            (figures.FIG7_FOUR_SOCKET_SLO,
             {"topology": "four-socket", "service_classes": classes}),
        ]:
            assert row.target == "fig7" and row.claims == ()
            assert row.size == {**figures.FIG7.size, **sweep}
            assert row.quick == {**figures.FIG7.quick, **sweep}

    def test_claims_exits_1_and_names_a_failed_claim(self, monkeypatch, capsys):
        impossible = Claim(
            "cooperative makespan under 1 µs",
            lambda points: points["cooperative"].makespan_ms, "<", 0.001,
        )
        fig7 = figures.FIG7._replace(claims=(impossible,))
        monkeypatch.setattr(figures, "FIGURES", {"fig7": fig7})
        assert main(["claims", "--quick"]) == 1
        captured = capsys.readouterr()
        assert "| fig7 | cooperative makespan under 1 µs |" in captured.out
        assert "FAILED CLAIM fig7: cooperative makespan under 1 µs" in captured.err
