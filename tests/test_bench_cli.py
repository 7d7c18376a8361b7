"""Argument-handling tests for the ``python -m repro.bench`` surface.

The underlying parsers (``resolve_policy_selection``,
``parse_slo_class_specs``, ``resolve_scenario_selection``) have their own
unit tests; these exercise the CLI itself — exit codes and the error
text a user actually sees.
"""

import json
from pathlib import Path

import pytest

from repro.bench import figures
from repro.bench import results as results_io
from repro.bench.cli import main
from repro.bench.figures import Claim


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


class TestPolicyFlag:
    def test_near_miss_suggestion_before_anything_runs(self, capsys):
        assert main(["fig7", "--quick", "--policy", "cooperativ"]) == 2
        stderr = capsys.readouterr().err
        assert "unknown scheduling policy 'cooperativ'" in stderr
        assert "did you mean 'cooperative'?" in stderr

    def test_typo_rejected_even_for_non_fig7_targets(self, capsys):
        # validation happens up front, not when the loop reaches fig7
        assert main(["e1", "--quick", "--policy", "dead-line"]) == 2
        assert "did you mean 'deadline'?" in capsys.readouterr().err

    def test_empty_selection_rejected(self, capsys):
        assert main(["fig7", "--quick", "--policy", ","]) == 2
        assert "selects no policies" in capsys.readouterr().err


class TestSloClassFlag:
    def test_malformed_spec_exits_2(self, capsys):
        assert main(["fig7", "--quick", "--slo-class", "light-1000"]) == 2
        assert "malformed --slo-class" in capsys.readouterr().err

    def test_unknown_endpoint_gets_near_miss(self, capsys):
        assert main(["fig7", "--quick", "--slo-class", "ligth=1000"]) == 2
        stderr = capsys.readouterr().err
        assert "unknown endpoint 'ligth'" in stderr
        assert "did you mean 'light'?" in stderr

    def test_non_numeric_slo_exits_2(self, capsys):
        assert main(["fig7", "--quick", "--slo-class", "light=fast"]) == 2
        assert "is not a number of µs" in capsys.readouterr().err


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
        document = results_io.load_results(out)
        assert list(document["scenarios"]) == ["http-closed-baseline"]


class TestAllocatorAdmissionFlags:
    def test_unknown_allocator_exits_2_with_suggestion(self, capsys):
        assert main(["scenarios", "--allocator", "queue-deph"]) == 2
        stderr = capsys.readouterr().err
        assert "unknown core allocator 'queue-deph'" in stderr
        assert "did you mean 'queue-depth'?" in stderr

    def test_unknown_admission_exits_2_with_suggestion(self, capsys):
        assert main(["scenarios", "--admission", "shed-bronz"]) == 2
        stderr = capsys.readouterr().err
        assert "unknown admission policy 'shed-bronz'" in stderr
        assert "did you mean 'shed-bronze'?" in stderr

    def test_typos_rejected_before_other_targets_run(self, capsys):
        assert main(["e1", "--quick", "--allocator", "statik"]) == 2
        assert "did you mean 'static'?" in capsys.readouterr().err
        assert main(["e1", "--quick", "--admission", "admitall"]) == 2
        assert "did you mean 'admit-all'?" in capsys.readouterr().err

    def test_overrides_apply_to_the_selected_scenarios(
        self, tmp_path, capsys
    ):
        out = tmp_path / "overridden.json"
        code = main([
            "scenarios", "--quick",
            "--scenario", "http-open-poisson",
            "--allocator", "queue-depth",
            "--admission", "token-bucket",
            "--output", str(out),
        ])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "admission=token-bucket" in stdout
        assert "allocator=queue-depth" in stdout
        entry = results_io.load_results(out)["scenarios"]["http-open-poisson"]
        assert entry["allocator"]["name"] == "queue-depth"
        assert entry["admission"]["policy"] == "token-bucket"

    def test_admission_override_on_a_job_scenario_exits_2(self, capsys):
        code = main([
            "scenarios", "--quick",
            "--scenario", "hadoop-ramp-mappers",
            "--admission", "shed-bronze",
        ])
        assert code == 2
        assert "does not support admission" in capsys.readouterr().err

    def test_documented_ci_override_leg_is_green(self, tmp_path, capsys):
        """The documented override path: the pinned shed scenario under
        an explicit --admission override matching its pinned policy
        must compare clean against the committed baseline."""
        baseline = (
            Path(__file__).parent.parent
            / "benchmarks" / "baseline_scenarios.json"
        )
        code = main([
            "scenarios", "--quick",
            "--scenario", "http-overload-shed",
            "--admission", "shed-bronze",
            "--output", str(tmp_path / "now.json"),
            "--baseline", str(baseline),
        ])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert "no perf regressions" in captured.out


class TestBaselineFlag:
    def test_regression_exits_1(self, tmp_path, capsys):
        out = tmp_path / "now.json"
        assert main([
            "scenarios", "--quick",
            "--scenario", "http-closed-baseline", "--output", str(out),
        ]) == 0
        capsys.readouterr()
        document = json.loads(out.read_text())
        entry = document["scenarios"]["http-closed-baseline"]
        entry["throughput"] *= 2.0  # fake a faster past
        baseline_path = tmp_path / "baseline.json"
        baseline_path.write_text(json.dumps(document))
        code = main([
            "scenarios", "--quick",
            "--scenario", "http-closed-baseline",
            "--output", str(out), "--baseline", str(baseline_path),
        ])
        assert code == 1
        stderr = capsys.readouterr().err
        assert "PERF REGRESSION" in stderr
        # ~50%: the doctored baseline is 2x this run's throughput
        assert "throughput dropped 5" in stderr

    def test_filtered_run_against_full_baseline_is_green(
        self, tmp_path, capsys
    ):
        """--scenario + --baseline must not read the unselected matrix
        entries as vanished coverage."""
        baseline = (
            Path(__file__).parent.parent
            / "benchmarks" / "baseline_scenarios.json"
        )
        out = tmp_path / "now.json"
        code = main([
            "scenarios", "--quick",
            "--scenario", "http-overload-closed",
            "--output", str(out),
            "--baseline", str(baseline),
        ])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert "no perf regressions" in captured.out

    def test_quick_mismatch_is_a_usage_error(self, tmp_path, capsys):
        out = tmp_path / "now.json"
        assert main([
            "scenarios", "--quick",
            "--scenario", "http-closed-baseline", "--output", str(out),
        ]) == 0
        capsys.readouterr()
        document = json.loads(out.read_text())
        document["quick"] = False
        baseline_path = tmp_path / "baseline.json"
        baseline_path.write_text(json.dumps(document))
        code = main([
            "scenarios", "--quick",
            "--scenario", "http-closed-baseline",
            "--output", str(out), "--baseline", str(baseline_path),
        ])
        assert code == 2
        assert "like-for-like" in capsys.readouterr().err


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

    def test_bad_shards_exits_2(self, capsys):
        assert main(["scenarios", "--quick", "--shards", "0"]) == 2
        assert "--shards must be >= 1" in capsys.readouterr().err

    def test_unknown_routing_gets_near_miss(self, capsys):
        assert main([
            "scenarios", "--quick", "--routing", "least-loadd",
        ]) == 2
        stderr = capsys.readouterr().err
        assert "unknown routing policy 'least-loadd'" in stderr
        assert "did you mean 'least-loaded'?" in stderr

    def test_routing_typo_rejected_before_any_target_runs(self, capsys):
        # validation is up front, shared with every other flag
        assert main(["e1", "--quick", "--routing", "hash-afinity"]) == 2
        assert "did you mean 'hash-affinity'?" in capsys.readouterr().err

    def test_shards_override_runs_the_fleet_path(self, tmp_path, capsys):
        out_path = tmp_path / "out.json"
        code = main([
            "scenarios", "--quick",
            "--scenario", "http-open-poisson",
            "--shards", "2", "--routing", "least-loaded",
            "--output", str(out_path),
        ])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        document = json.loads(out_path.read_text())
        entry = document["scenarios"]["http-open-poisson"]
        assert entry["cluster"]["shards"] == 2
        assert entry["cluster"]["routing"] == "least-loaded"


GOLDEN = Path(__file__).parent.parent / "benchmarks" / "golden"


class TestFigureTargets:
    @pytest.mark.parametrize("flags", [[], ["--policy", "all"]])
    def test_fig7_quick_prints_its_golden(self, flags, capsys):
        """The row's series is every registered policy, so the default
        and ``--policy all`` print the same bytes."""
        assert main(["fig7", "--quick", *flags]) == 0
        expected = (GOLDEN / "fig7_quick.txt").read_text(encoding="utf-8")
        assert capsys.readouterr().out == expected

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
