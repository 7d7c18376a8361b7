"""The cluster tier's pinned behaviours: the 1→2→4 shard scaling
curve, failover survival, and the parallel matrix runner's
byte-identity guarantee (``--jobs N`` == ``--jobs 1``)."""

import json

from repro.bench import results as results_io
from repro.bench.scenarios import (
    SCENARIOS,
    Scenario,
    run_scenario,
    run_scenario_matrix,
)

_BY_NAME = {s.name: s for s in SCENARIOS}

#: ISSUE acceptance floor: each shard-count doubling at fixed offered
#: load must buy at least this much completion throughput.
MIN_SCALING_PER_DOUBLING = 1.7


class TestScalingCurve:
    def test_fleet_scale_scenarios_share_the_offered_load(self):
        """The curve is only a curve if 1, 2 and 4 shards face the SAME
        open-loop load — everything but the fleet must be pinned."""
        one, two, four = (
            _BY_NAME[f"http-fleet-scale-{n}"] for n in (1, 2, 4)
        )
        assert (one.shards, two.shards, four.shards) == (1, 2, 4)
        for scenario in (two, four):
            assert scenario.arrival == one.arrival
            assert scenario.arrival_params == one.arrival_params
            assert scenario.concurrency == one.concurrency
            assert scenario.total_requests == one.total_requests
            assert scenario.cores == one.cores
            assert scenario.mode == one.mode

    def test_throughput_scales_with_the_fleet(self):
        """The tentpole gate: >= 1.7x completion throughput per
        doubling at fixed offered load (quick CI sizes)."""
        thr = {
            n: run_scenario(
                _BY_NAME[f"http-fleet-scale-{n}"], quick=True
            )["throughput"]
            for n in (1, 2, 4)
        }
        assert thr[2] >= MIN_SCALING_PER_DOUBLING * thr[1]
        assert thr[4] >= MIN_SCALING_PER_DOUBLING * thr[2]


class TestFailover:
    def test_mid_run_shard_death_degrades_without_collapse(self):
        entry = run_scenario(_BY_NAME["http-fleet-failover"], quick=True)
        cluster = entry["cluster"]
        assert cluster["shards"] == 2
        assert cluster["alive_shards"] == 1
        assert cluster["failed_shards"] == [1]
        assert cluster["per_shard"]["shard1"]["alive"] is False
        assert cluster["failed_over_connections"] > 0
        # bounded loss: only the severed connections' in-flight windows
        # fail; everything else completes on the survivor
        admitted = entry["admission"]["admitted"]
        assert entry["failed"] > 0
        assert entry["failed"] < 0.05 * admitted
        assert entry["completed"] + entry["failed"] == admitted
        # no metastable collapse: the surviving shard keeps latency
        # inside the SLO for the overwhelming majority of requests
        assert entry["slo"]["miss_rate"] < 0.05
        assert entry["throughput"] > 0


class TestParallelRunner:
    #: Two cheap scenarios spanning both the classic and cluster paths.
    _SELECTION = ("http-closed-baseline", "http-fleet-scale-2")

    def _documents(self, jobs):
        selected = tuple(_BY_NAME[name] for name in self._SELECTION)
        results = run_scenario_matrix(selected, quick=True, jobs=jobs)
        return results_io.results_document(results, quick=True)

    def test_jobs_output_is_byte_identical_to_serial(self):
        serial = self._documents(jobs=1)
        parallel = self._documents(jobs=2)
        assert json.dumps(serial, sort_keys=True) == json.dumps(
            parallel, sort_keys=True
        )

    def test_results_keep_selection_order(self):
        parallel = self._documents(jobs=2)
        assert tuple(parallel["scenarios"]) == self._SELECTION

    def test_more_jobs_than_scenarios_is_fine(self):
        selected = (_BY_NAME["http-closed-baseline"],)
        serial = run_scenario_matrix(selected, quick=True, jobs=1)
        wide = run_scenario_matrix(selected, quick=True, jobs=8)
        assert serial == wide

    def test_bad_jobs_rejected(self):
        import pytest

        from repro.core.errors import ConfigError

        with pytest.raises(ConfigError, match="jobs"):
            run_scenario_matrix((), quick=True, jobs=0)

    def test_validation_errors_surface_in_the_parent(self):
        import pytest

        from repro.core.errors import ConfigError

        bad = Scenario(
            name="bad", app="http_lb", arrival="poisson",
            shards=2, routing="least-loadd",
        )
        with pytest.raises(ConfigError, match="least-loaded"):
            run_scenario_matrix(
                (bad, _BY_NAME["http-closed-baseline"]), quick=True, jobs=2
            )

    def test_a_serial_run_validates_every_scenario_before_running_any(
        self, monkeypatch
    ):
        """A serial run of ``shed-bronze`` admission over a selection
        ending in a hadoop scenario must fail before the two
        request/response scenarios run, as it does at ``jobs=2``."""
        import pytest

        from repro.bench import scenarios
        from repro.core.errors import ConfigError

        ran = []
        monkeypatch.setattr(
            scenarios, "run_scenario", lambda s, quick=False: ran.append(s)
        )
        selected = tuple(
            _BY_NAME[name]._replace(admission="shed-bronze")
            for name in (
                "http-fleet-scale-4", "http-open-poisson", "hadoop-ramp-mappers"
            )
        )
        with pytest.raises(ConfigError, match="hadoop-ramp-mappers"):
            run_scenario_matrix(selected, quick=True, jobs=1)
        assert ran == []
