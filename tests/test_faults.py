"""Fault-injection tests: registry, determinism, conservation, the storm.

The plane's load-bearing promises, each pinned here:

* registry hygiene (sorted names, near-miss suggestions, bad-parameter
  errors) matching the other five registries;
* byte-determinism — the same seed produces an identical result with a
  fault installed, and the parallel scenario runner stays
  byte-identical to serial under faults;
* conservation at both accounting doors for every registered injector:
  ``admitted + shed == offered`` and
  ``completed + failed + retried == admitted`` once the run drains;
* the acceptance pair — the identical retry storm collapses under
  ``cooperative`` + ``admit-all`` and stays inside its SLO under
  ``deadline`` + ``shed-bronze``.
"""

import dataclasses

import pytest

from repro.bench.scenarios import (
    _BY_NAME,
    run_scenario,
    run_scenario_matrix,
)
from repro.bench.testbeds import run_http_experiment
from repro.core.errors import ConfigError
from repro.net.faults import (
    FaultPolicy,
    make_fault,
    registered_faults,
)
from repro.workloads.arrivals import make_arrival

BUILTINS = ("conn-churn", "flapping-backend", "retry-storm", "slow-backend")


class TestRegistry:
    def test_builtin_faults_registered(self):
        names = registered_faults()
        assert names == tuple(sorted(names))
        assert set(BUILTINS) <= set(names)
        assert len(set(names)) == len(names)

    @pytest.mark.parametrize("name", BUILTINS)
    def test_describe_and_params_are_json_plain(self, name):
        fault = make_fault(name)
        assert fault.name == name
        for value in fault.params().values():
            assert isinstance(value, (int, float, str, bool, type(None)))


def _fault(name):
    params = {"retry-storm": {"retry_after_us": 2_000.0, "max_retries": 3}}
    return make_fault(name, **params.get(name, {}))


def _fault_run(name, fault=None, **kwargs):
    """A small open-loop LB run with ``name`` (or the ready ``fault``)
    installed."""
    return run_http_experiment(
        "flick-kernel",
        16,
        mode="lb",
        cores=4,
        arrival=make_arrival("poisson", rate_rps=40_000.0),
        total_requests=512,
        slo_us=2_000.0,
        faults=_fault(name) if fault is None else fault,
        **kwargs,
    )


class TestConservation:
    @pytest.mark.parametrize("name", registered_faults())
    def test_both_doors_balance_for_every_registered_fault(self, name):
        entry = _fault_run(name).entry
        admission = entry["admission"]
        assert admission["admitted"] + admission["shed"] == entry["offered"]
        assert (
            entry["completed"] + entry["failed"] + entry["retried"]
            == admission["admitted"]
        )

    @pytest.mark.parametrize("name", registered_faults())
    def test_fault_counters_land_in_the_faults_section(self, name):
        section = _fault_run(name).entry["faults"]
        assert section["name"] == name
        # retry-storm's retries are the entry's top-level ``retried``.
        assert section["counters"] or name == "retry-storm", (
            f"{name} reported no counters"
        )

    @pytest.mark.parametrize("name", registered_faults())
    def test_counters_hold_only_what_the_injector_measured(self, name):
        """A counter is a measured number: its key names no parameter
        of the injector and no top-level key of the entry, so it cannot
        echo either."""
        entry = _fault_run(name).entry
        section = entry["faults"]
        echoes = set(section["counters"]) & (
            set(section["params"]) | set(entry)
        )
        assert not echoes, f"{name} counters echo {sorted(echoes)}"


class TestDeterminism:
    @pytest.mark.parametrize("name", registered_faults())
    def test_same_seed_same_result(self, name):
        first = dataclasses.asdict(_fault_run(name))
        second = dataclasses.asdict(_fault_run(name))
        assert first == second

    @pytest.mark.parametrize("name", registered_faults())
    def test_reused_instance_same_result(self, name):
        """One ready instance installed twice carries no count from the
        first run into the second: the counters live on what the fault
        was installed on, like every other policy plane's state."""
        fault = _fault(name)
        first = dataclasses.asdict(_fault_run(name, fault))
        second = dataclasses.asdict(_fault_run(name, fault))
        assert (
            first["entry"]["faults"]["counters"]
            == second["entry"]["faults"]["counters"]
        )
        assert first == second

    def test_jobs_parallelism_is_byte_identical_under_faults(self):
        selected = (
            _BY_NAME["http-retry-storm-shed"],
            _BY_NAME["memcached-conn-churn"],
        )
        serial = run_scenario_matrix(selected, quick=True, jobs=1)
        parallel = run_scenario_matrix(selected, quick=True, jobs=2)
        assert serial == parallel


class TestScenarioValidation:
    def test_fault_params_without_faults_rejected(self):
        scenario = _BY_NAME["http-open-poisson"]._replace(
            fault_params=(("max_retries", 3),)
        )
        with pytest.raises(ConfigError, match="fault_params without faults"):
            scenario.check()

    def test_fault_on_closed_loop_runs(self):
        """The closed rule has the same failure and retry accounting as
        an arrival clock, so a fault runs under it."""
        scenario = _BY_NAME["http-overload-closed"]._replace(
            faults="retry-storm",
            fault_params=(("retry_after_us", 300.0), ("max_retries", 1)),
        )
        entry = run_scenario(scenario, quick=True)
        assert entry["retried"] > 0
        assert entry["requests"] == entry["offered"] - entry["retried"]
        assert (
            entry["completed"] + entry["failed"] + entry["retried"]
            == entry["admission"]["admitted"]
            == entry["offered"]
        )

    def test_backend_fault_on_backendless_mode_rejected(self):
        scenario = _BY_NAME["http-web-ramp"]._replace(
            faults="flapping-backend"
        )
        with pytest.raises(ConfigError, match="mode='web' has none"):
            scenario.check()

    def test_fault_on_sharded_scenario_rejected(self):
        scenario = _BY_NAME["http-fleet-scale-2"]._replace(
            faults="retry-storm"
        )
        with pytest.raises(ConfigError, match="single-platform"):
            scenario.check()

    def test_unknown_fault_gets_near_miss(self):
        scenario = _BY_NAME["http-open-poisson"]._replace(
            faults="slow-backen"
        )
        with pytest.raises(ConfigError, match="did you mean 'slow-backend'"):
            scenario.check()

    def test_every_pinned_fault_scenario_validates(self):
        for name, scenario in _BY_NAME.items():
            if scenario.faults is not None:
                scenario.check()


class TestRetryStormAcceptance:
    """The pinned pair: admission control breaks the metastable loop."""

    @pytest.fixture(scope="class")
    def pair(self):
        return {
            name: run_scenario(_BY_NAME[name], quick=True)
            for name in ("http-retry-storm", "http-retry-storm-shed")
        }

    def test_storm_amplifies_offered_load(self, pair):
        storm = pair["http-retry-storm"]
        # Every retry re-enters through the door: offered load far
        # exceeds the arrival count, the amplification signature.
        assert storm["retried"] > storm["requests"]
        assert storm["offered"] == storm["requests"] + storm["retried"]

    def test_shed_door_breaks_the_loop(self, pair):
        storm = pair["http-retry-storm"]
        shed = pair["http-retry-storm-shed"]
        assert shed["retried"] < storm["retried"] / 4
        assert shed["admission"]["shed"] > 0
        assert shed["latency_ms"]["p99"] < storm["latency_ms"]["p99"] / 2
        assert shed["slo"]["misses"] < storm["slo"]["misses"]
        assert shed["throughput"] > storm["throughput"]

    def test_entries_carry_the_faults_section(self, pair):
        for entry in pair.values():
            section = entry["faults"]
            assert section["name"] == "retry-storm"
            assert section["params"]["max_retries"] == 3
            # The retries are the entry's own ``retried``; the section
            # repeats nothing.
            assert section["counters"] == {}
            assert entry["retried"] > 0

    def test_per_class_retries_are_accounted(self, pair):
        storm = pair["http-retry-storm"]
        per_class = storm["admission"]["per_class"]
        assert sum(c["retried"] for c in per_class.values()) == storm[
            "retried"
        ]


class TestFaultPolicyBase:
    def test_abstract_base_has_safe_defaults(self):
        fault = FaultPolicy()
        assert fault.population_kwargs() == {}
        assert fault.counters() == {}
        assert fault.params() == {}
        assert fault.needs_backends is False
