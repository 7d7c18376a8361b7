"""Admission-control tests: registry, policy units, conservation, survival.

The conservation law (``admitted + shed == offered``, per class and in
total) is checked as a hypothesis property over end-to-end open-loop
runs, and the headline behaviour — ``shed-bronze`` turning an open-loop
overload collapse into bounded gold-class misses with the bronze
arrivals shed at the door — is pinned against an ``admit-all`` control
run of the same workload.
"""

from dataclasses import FrozenInstanceError, fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.testbeds import run_http_experiment
from repro.core.errors import ConfigError, FlickError
from repro.runtime.admission import (
    AdmissionPolicy,
    AdmissionRequest,
    make_admission,
    registered_admissions,
)
from repro.sim.engine import Engine
from repro.sim.stats import class_summary
from repro.workloads.arrivals import make_arrival


class TestRegistry:
    def test_builtin_policies_registered(self):
        names = registered_admissions()
        assert names[0] == "admit-all"
        assert "shed-bronze" in names
        assert len(set(names)) == len(names)

    def test_out_of_range_parameters_are_flick_errors(self):
        with pytest.raises(Exception, match="max_inflight"):
            make_admission("shed-bronze", max_inflight=0)
        with pytest.raises(Exception, match="protected class"):
            make_admission("shed-bronze", protect=())


class TestAdmissionRequest:
    def test_holds_the_class_and_the_inflight_count_only(self):
        assert [f.name for f in fields(AdmissionRequest)] == [
            "service_class", "inflight",
        ]
        request = AdmissionRequest("gold", 3)
        with pytest.raises(FrozenInstanceError):
            request.inflight = 0


class TestAdmitAll:
    def test_admits_every_class_at_any_load(self):
        policy = make_admission("admit-all")
        for service_class in ("gold", "bronze", "default"):
            for inflight in (0, 1, 10**6):
                assert policy.admit(AdmissionRequest(service_class, inflight))


class TestShedBronze:
    def test_below_watermark_everything_gets_in(self):
        policy = make_admission("shed-bronze", max_inflight=2)
        assert policy.admit(AdmissionRequest("bronze", inflight=0))
        assert policy.admit(AdmissionRequest("bronze", inflight=1))
        assert policy.admit(AdmissionRequest("anything", inflight=1))

    def test_above_watermark_only_protected_classes(self):
        policy = make_admission("shed-bronze", max_inflight=2)
        assert not policy.admit(AdmissionRequest("bronze", inflight=2))
        assert not policy.admit(AdmissionRequest("default", inflight=5))
        assert policy.admit(AdmissionRequest("gold", inflight=5))

    def test_protect_list_is_configurable(self):
        policy = make_admission(
            "shed-bronze", max_inflight=1, protect=("silver", "gold")
        )
        assert policy.admit(AdmissionRequest("silver", inflight=10))
        assert policy.admit(AdmissionRequest("gold", inflight=10))
        assert not policy.admit(AdmissionRequest("bronze", inflight=10))


class TestScoreboardSheds:
    def test_shed_only_class_appears_with_zeroed_latency(self):
        clients = {
            "gold": {"shed": 0, "retried": 0},
            "bronze": {"shed": 3, "retried": 0},
        }
        summary = class_summary([], clients)
        assert list(summary) == ["bronze"]  # no outcome, no row
        stats = summary["bronze"]
        assert stats["shed"] == 3
        assert stats["completions"] == 0
        assert stats["mean_ms"] == 0.0


def open_loop_run(
    admission="admit-all",
    class_mix=(),
    total_requests=96,
    rate_rps=80_000.0,
    cores=2,
    concurrency=16,
):
    return run_http_experiment(
        "flick-kernel",
        concurrency,
        mode="lb",
        cores=cores,
        arrival=make_arrival("poisson", rate_rps=rate_rps),
        total_requests=total_requests,
        slo_us=2_000.0,
        admission=admission,
        class_mix=class_mix,
    )


class TestConservation:
    """``admitted + shed == offered`` — per class and in total."""

    @given(
        name=st.sampled_from(registered_admissions()),
        gold_weight=st.integers(min_value=1, max_value=4),
        bronze_weight=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=6, deadline=None)
    def test_per_class_conservation_end_to_end(
        self, name, gold_weight, bronze_weight
    ):
        mix = (
            ("gold", float(gold_weight)),
            ("bronze", float(bronze_weight)),
        )
        result = open_loop_run(admission=name, class_mix=mix)
        stats = result.entry["admission"]["per_class"]
        assert set(stats) == {"gold", "bronze"}
        for per_class in stats.values():
            assert (
                per_class["admitted"] + per_class["shed"]
                == per_class["offered"]
            )
            # The run drains: every admitted request completes.
            assert per_class["completed"] == per_class["admitted"]
        assert sum(s["offered"] for s in stats.values()) == 96
        admission = result.entry["admission"]
        assert sum(s["admitted"] for s in stats.values()) == admission["admitted"]
        assert sum(s["shed"] for s in stats.values()) == admission["shed"]

    def test_class_mix_is_weighted_round_robin_exact(self):
        result = open_loop_run(
            class_mix=(("gold", 1.0), ("bronze", 3.0)), total_requests=96
        )
        stats = result.entry["admission"]["per_class"]
        # Credit-based WRR, not sampling: proportions are exact.
        assert stats["gold"]["offered"] == 24
        assert stats["bronze"]["offered"] == 72

    def test_sheds_mirror_into_the_platform_scoreboard(self):
        result = open_loop_run(
            admission=make_admission("shed-bronze", max_inflight=8),
            class_mix=(("gold", 1.0), ("bronze", 1.0)),
            rate_rps=160_000.0,
            cores=1,
            total_requests=128,
        )
        shed = result.entry["admission"]["per_class"]["bronze"]["shed"]
        assert shed > 0
        assert result.entry["classes"]["bronze"]["shed"] == shed
        # Gold never shed (and the task side runs unclassified here), so
        # no gold entry materialises in the scoreboard summary.
        assert result.entry["classes"].get("gold", {}).get("shed", 0) == 0


class _Recording(AdmissionPolicy):
    """Admits everything and keeps every request it was asked about."""

    name = "recording"

    def __init__(self):
        self.seen = []

    def admit(self, request):
        self.seen.append(request)
        return True


class TestPopulationAsksThePolicy:
    def test_once_per_offer_with_the_live_inflight_count(self):
        policy = _Recording()
        result = open_loop_run(
            admission=policy,
            class_mix=(("gold", 1.0), ("bronze", 1.0)),
            rate_rps=160_000.0,
            cores=1,
        )
        assert len(policy.seen) == result.entry["offered"] == 96
        classes = [request.service_class for request in policy.seen]
        assert classes.count("gold") == classes.count("bronze") == 48
        inflight = [request.inflight for request in policy.seen]
        assert inflight[0] == 0
        assert min(inflight) >= 0
        # One core at twice its rate: offers arrive while others wait.
        assert max(inflight) > 1


class TestValidation:
    def test_a_closed_loop_shed_moves_its_client_on(self):
        """Under the closed rule a shed is a terminal outcome like any
        other: the client offers its next request at once, so every
        client still offers all of its requests."""
        result = run_http_experiment(
            "flick-kernel", 8, cores=2, requests_per_client=10,
            admission=make_admission("shed-bronze", max_inflight=4),
            class_mix=(("gold", 1.0), ("bronze", 1.0)),
        )
        per_class = result.entry["admission"]["per_class"]
        assert per_class["bronze"]["shed"] > 0
        assert per_class["gold"]["shed"] == 0
        assert result.entry["offered"] == 80
        for row in per_class.values():
            assert row["admitted"] + row["shed"] == row["offered"]
            assert row["completed"] == row["admitted"]

    def test_an_admission_typo_is_rejected_before_the_engine_runs(
        self, monkeypatch
    ):
        def no_run(engine, until=None):
            raise AssertionError("the engine ran")

        monkeypatch.setattr(Engine, "run", no_run)
        with pytest.raises(FlickError, match="did you mean 'admit-all'"):
            open_loop_run(admission="admitall")

    def test_class_mix_shape_is_checked(self):
        with pytest.raises(ConfigError, match="weight"):
            open_loop_run(class_mix=(("gold", 0.0),))
        with pytest.raises(ConfigError, match="repeats class"):
            open_loop_run(class_mix=(("gold", 1.0), ("gold", 2.0)))


class TestReuse:
    @pytest.mark.parametrize("name", registered_admissions())
    def test_reused_instance_same_result(self, name):
        """One ready instance admitting for two runs decides the second
        as it decided the first: an admission policy keeps no per-run
        state, so nothing resets it between runs."""
        # A watermark the overload crosses, so ``shed-bronze`` sheds.
        knobs = {"shed-bronze": {"max_inflight": 8}}.get(name, {})
        policy = make_admission(name, **knobs)
        runs = [
            open_loop_run(
                admission=policy,
                class_mix=(("gold", 1.0), ("bronze", 1.0)),
                rate_rps=160_000.0,
                cores=1,
                total_requests=128,
            ).entry
            for _ in range(2)
        ]
        assert runs[0] == runs[1]
        assert (runs[0]["admission"]["shed"] > 0) == (name != "admit-all")


class TestOverloadSurvival:
    """The PR's headline: shedding bronze keeps gold's SLO alive."""

    @pytest.fixture(scope="class")
    def runs(self):
        kwargs = dict(
            class_mix=(("gold", 1.0), ("bronze", 1.0)),
            total_requests=512,
            rate_rps=160_000.0,
            cores=8,
            concurrency=64,
        )
        control = open_loop_run(admission="admit-all", **kwargs)
        shed = open_loop_run(
            admission=make_admission("shed-bronze", max_inflight=96),
            **kwargs,
        )
        return control, shed

    def test_admit_all_collapses_under_overload(self, runs):
        control, _ = runs
        stats = control.entry["admission"]["per_class"]
        assert stats["gold"]["shed"] == 0
        assert stats["bronze"]["shed"] == 0
        # Open loop + no shedding: the queue grows without bound and
        # takes the premium class down with it.
        assert stats["gold"]["slo_misses"] > 100

    def test_shed_bronze_bounds_gold_misses(self, runs):
        control, shed = runs
        stats = shed.entry["admission"]["per_class"]
        assert stats["bronze"]["shed"] > 0
        assert stats["gold"]["shed"] == 0
        assert stats["gold"]["admitted"] == stats["gold"]["offered"]
        assert (
            stats["gold"]["slo_misses"]
            < control.entry["admission"]["per_class"]["gold"]["slo_misses"]
        )
        assert (
            shed.entry["latency_ms"]["p99"]
            < control.entry["latency_ms"]["p99"]
        )
