"""Scenario matrix + machine-readable results document tests."""

import json
from pathlib import Path

import pytest

from repro.bench import results as results_io
from repro.bench import scenarios
from repro.bench.scenarios import (
    SCENARIOS,
    resolve_scenario_selection,
    run_scenario,
    run_scenario_matrix,
)
from repro.bench.testbeds import APPS, Scenario
from repro.core.errors import ConfigError


class TestMatrixShape:
    def test_covers_all_three_apps(self):
        assert {s.app for s in SCENARIOS} == set(APPS)

    def test_covers_at_least_three_arrival_processes(self):
        arrivals = {s.arrival for s in SCENARIOS if s.arrival is not None}
        assert arrivals >= {"poisson", "bursty", "ramp", "replay"}

    def test_has_the_open_closed_overload_pair(self):
        by_name = {s.name: s for s in SCENARIOS}
        open_, closed = (
            by_name["http-overload-open"], by_name["http-overload-closed"],
        )
        # same middlebox, pool, volume and SLO — only the loop differs
        assert open_.arrival is not None and closed.arrival is None
        assert open_.slo_us == closed.slo_us is not None
        assert open_.concurrency == closed.concurrency
        assert open_.total_requests == closed.total_requests
        assert open_.cores == closed.cores

    def test_names_are_unique(self):
        names = [s.name for s in SCENARIOS]
        assert len(names) == len(set(names))

    def test_has_the_admission_survival_pair(self):
        """open vs shed differ only in the admission policy, so the
        pinned pair isolates what shedding buys under overload."""
        by_name = {s.name: s for s in SCENARIOS}
        open_, shed = (
            by_name["http-overload-open"], by_name["http-overload-shed"],
        )
        assert open_.admission == "admit-all"
        assert shed.admission == "shed-bronze"
        assert shed.admission_params
        assert open_.class_mix == shed.class_mix != ()
        assert open_.arrival == shed.arrival
        assert open_.arrival_params == shed.arrival_params
        assert open_.slo_us == shed.slo_us is not None
        assert open_.total_requests == shed.total_requests
        assert open_.cores == shed.cores

    def test_has_an_elastic_allocator_scenario(self):
        by_name = {s.name: s for s in SCENARIOS}
        ramp = by_name["http-ramp-elastic"]
        assert ramp.allocator == "queue-depth"
        assert ramp.arrival == "ramp"


class TestSelection:
    def test_all_selects_the_whole_matrix(self):
        assert resolve_scenario_selection("all") == SCENARIOS

    def test_comma_list_preserves_request_order(self):
        picked = resolve_scenario_selection(
            "http-open-poisson,http-closed-baseline"
        )
        assert [s.name for s in picked] == [
            "http-open-poisson", "http-closed-baseline",
        ]

    def test_duplicate_names_run_once(self):
        picked = resolve_scenario_selection(
            "http-open-poisson,http-open-poisson"
        )
        assert [s.name for s in picked] == ["http-open-poisson"]

    def test_unknown_name_gets_near_miss_suggestion(self):
        with pytest.raises(ConfigError) as excinfo:
            resolve_scenario_selection("http-overload-opne")
        assert "unknown scenario 'http-overload-opne'" in str(excinfo.value)
        assert "did you mean 'http-overload-open'?" in str(excinfo.value)

    def test_empty_selection_rejected(self):
        with pytest.raises(ConfigError, match="selects no scenarios"):
            resolve_scenario_selection(", ,")


class TestRunner:
    def test_unknown_app_rejected(self):
        bogus = Scenario(name="x", app="quic_proxy", arrival=None)
        with pytest.raises(ConfigError, match="unknown app"):
            run_scenario(bogus)

    def test_hadoop_rejects_fields_its_testbed_ignores(self):
        # silently dropping these would let the entry report a config
        # that never ran
        with pytest.raises(ConfigError, match="does not support"):
            run_scenario(Scenario(
                name="x", app="hadoop_agg", arrival=None,
                service_classes=("mappers=gold:1000",),
            ))
        with pytest.raises(ConfigError, match="does not support"):
            run_scenario(Scenario(
                name="x", app="hadoop_agg", arrival=None, slo_us=2_000.0,
            ))

    def test_mode_is_http_only(self):
        with pytest.raises(ConfigError, match="unknown memcached_proxy mode"):
            run_scenario(Scenario(
                name="x", app="memcached_proxy", arrival=None, mode="web",
            ))

    def test_entry_schema(self):
        scenario = Scenario(
            name="tiny", app="http_lb", arrival="poisson",
            arrival_params=(("rate_rps", 30_000.0),),
            concurrency=16, total_requests=256, slo_us=2_000.0, cores=4,
        )
        entry = run_scenario(scenario, quick=True)
        assert entry["app"] == "http_lb"
        assert entry["arrival"].startswith("poisson")
        assert entry["offered"] == entry["completed"] == 256
        # open loop has no warmup window: every request is measured
        assert entry["measured"] == 256
        assert entry["throughput"] > 0
        assert set(entry["latency_ms"]) == {"mean", "p50", "p99", "max"}
        assert entry["slo"]["misses"] == entry["slo"]["miss_rate"] * 256
        assert "default" in entry["classes"]
        assert entry["steals"]["steals"] >= 0
        assert set(entry["arrival_gaps_us"]) == {"mean", "p50", "p99"}

    def test_open_loop_overload_misses_slo_where_closed_loop_cannot(self):
        """The acceptance pair: open-loop makes overload observable."""
        by_name = {s.name: s for s in SCENARIOS}
        open_entry = run_scenario(by_name["http-overload-open"], quick=True)
        closed_entry = run_scenario(
            by_name["http-overload-closed"], quick=True
        )
        assert open_entry["slo"]["misses"] > 0
        assert closed_entry["slo"]["misses"] == 0
        # the closed loop self-throttled: its p99 never saw the backlog
        assert (
            open_entry["latency_ms"]["p99"]
            > 2 * closed_entry["latency_ms"]["p99"]
        )

    def test_service_classes_thread_through_to_accounting(self):
        scenario = Scenario(
            name="classed", app="http_lb", arrival="poisson",
            arrival_params=(("rate_rps", 30_000.0),),
            service_classes=("client=gold:2000@2",),
            concurrency=16, total_requests=256, slo_us=2_000.0, cores=4,
        )
        entry = run_scenario(scenario, quick=True)
        assert "gold" in entry["classes"]

    def test_runs_are_order_independent(self):
        """A scenario's numbers must not depend on what ran before it
        in the same process (else a --scenario-filtered run could not
        be gated against the full-matrix baseline)."""
        scenario = Scenario(
            name="tiny", app="http_lb", arrival="poisson",
            arrival_params=(("rate_rps", 30_000.0),),
            concurrency=16, total_requests=256, slo_us=2_000.0, cores=4,
        )
        first = run_scenario(scenario, quick=True)
        # pollute the global task-id counter with an unrelated run
        run_scenario(
            Scenario(name="other", app="http_lb", arrival=None,
                     concurrency=8, total_requests=256, slo_us=2_000.0, cores=2),
            quick=True,
        )
        assert run_scenario(scenario, quick=True) == first

    def test_unknown_allocator_and_admission_get_near_misses(self):
        with pytest.raises(ConfigError) as excinfo:
            run_scenario(Scenario(
                name="x", app="http_lb", arrival=None,
                allocator="queue-deph",
            ))
        assert "did you mean 'queue-depth'?" in str(excinfo.value)
        with pytest.raises(ConfigError) as excinfo:
            run_scenario(Scenario(
                name="x", app="http_lb", arrival="poisson",
                admission="shed-bronz",
            ))
        assert "did you mean 'shed-bronze'?" in str(excinfo.value)

    def test_admission_fields_run_on_the_closed_rule(self):
        """The closed rule has the open loop's admission door: a shed
        request is a terminal outcome and its client moves on.  A
        mapper job has no door, so the check rejects the fields there
        rather than drop them."""
        entry = run_scenario(Scenario(
            name="x", app="http_lb", arrival=None, concurrency=8,
            requests_per_client=10, cores=2, admission="shed-bronze",
            admission_params=(("max_inflight", 2),),
            class_mix=(("gold", 1.0), ("bronze", 1.0)),
        ))
        admission = entry["admission"]
        assert set(admission["per_class"]) == {"gold", "bronze"}
        assert admission["shed"] > 0
        assert entry["requests"] == entry["offered"] == 80
        assert admission["admitted"] + admission["shed"] == 80
        assert entry["completed"] == admission["admitted"]
        with pytest.raises(ConfigError, match="does not support admission"):
            run_scenario(Scenario(
                name="x", app="hadoop_agg", arrival="poisson",
                admission="shed-bronze",
            ))

    def test_entry_allocator_and_admission_sections(self):
        scenario = Scenario(
            name="tiny-shed", app="http_lb", arrival="poisson",
            arrival_params=(("rate_rps", 30_000.0),),
            concurrency=16, total_requests=256, slo_us=2_000.0, cores=4,
            admission="shed-bronze",
            admission_params=(("max_inflight", 8),),
            class_mix=(("gold", 1.0), ("bronze", 1.0)),
        )
        entry = run_scenario(scenario, quick=True)
        assert entry["allocator"] == {
            "name": "static", "changes": 0, "moved_tasks": 0,
            "active_workers": {"min": 4, "max": 4, "final": 4},
        }
        admission = entry["admission"]
        assert admission["policy"] == "shed-bronze"
        assert admission["class_mix"] == {"gold": 1.0, "bronze": 1.0}
        assert set(admission["per_class"]) == {"gold", "bronze"}
        for stats in admission["per_class"].values():
            assert stats["admitted"] + stats["shed"] == stats["offered"]
        assert admission["admitted"] + admission["shed"] == 256

    def test_closed_loop_entry_has_allocator_and_admission(self):
        entry = run_scenario(Scenario(
            name="closed", app="http_lb", arrival=None,
            concurrency=8, total_requests=256, slo_us=2_000.0, cores=2,
        ), quick=True)
        assert entry["allocator"]["name"] == "static"
        assert entry["admission"]["policy"] == "admit-all"
        assert entry["admission"]["admitted"] == entry["offered"] == 256
        assert "arrival_gaps_us" not in entry

    def test_ramp_elastic_scenario_records_allocation_changes(self):
        by_name = {s.name: s for s in SCENARIOS}
        scenario = by_name["http-ramp-elastic"]
        entry = run_scenario(scenario, quick=True)
        alloc = entry["allocator"]
        assert alloc["name"] == "queue-depth"
        assert alloc["changes"] > 0
        assert alloc["active_workers"]["min"] < scenario.cores

    def test_shedding_bounds_gold_misses_where_admit_all_collapses(self):
        """The PR's acceptance pair at matrix level: same offered load,
        and only the shed run keeps the premium class inside its SLO
        budget."""
        by_name = {s.name: s for s in SCENARIOS}
        open_entry = run_scenario(by_name["http-overload-open"], quick=True)
        shed_entry = run_scenario(by_name["http-overload-shed"], quick=True)
        open_gold = open_entry["admission"]["per_class"]["gold"]
        shed_gold = shed_entry["admission"]["per_class"]["gold"]
        assert open_entry["admission"]["shed"] == 0
        assert shed_entry["admission"]["per_class"]["bronze"]["shed"] > 0
        assert shed_gold["shed"] == 0
        assert shed_gold["slo_misses"] < open_gold["slo_misses"]
        assert (
            shed_entry["latency_ms"]["p99"] < open_entry["latency_ms"]["p99"]
        )

    def test_hadoop_scenario_runs_with_paced_mappers(self):
        scenario = Scenario(
            name="h", app="hadoop_agg", arrival="ramp",
            arrival_params=(
                ("start_rps", 100.0), ("end_rps", 1000.0),
                ("duration_us", 20_000.0),
            ),
            cores=2,
        )
        entry = run_scenario(scenario, quick=True)
        assert entry["throughput_unit"] == "Mb/s"
        assert entry["throughput"] > 0
        # A job measures its completion time and bytes, nothing per request.
        assert entry["latency_ms"] > 0
        assert 0 < entry["job"]["egress_bytes"] < entry["job"]["ingress_bytes"]
        assert "offered" not in entry and "slo" not in entry


#: Invalid values that only resolving them reveals (building the arrival
#: or admission policy, the class map or the RuntimeConfig, or sizing
#: the clients): the check must resolve them before anything runs.
UNCHECKED_BEFORE = [
    ("topology", "two-sockett"),
    ("service_classes", ("clinet=gold:2000",)),
    ("arrival_params", (("rate_rps", -5.0),)),
    ("arrival_params", (("rate", 5.0),)),
    ("admission_params", (("max_inflite", 9),)),
    ("cores", 0),
    ("concurrency", 0),
]

#: Fields a run accepted and then ignored: another app's field set away
#: from its default, or ``persistent=False`` beside an arrival process.
#: Each is (matrix scenario, fields set on it).
IGNORED_BEFORE = [
    ("http-overload-shed", {"persistent": False}),
    ("memcached-open-poisson", {"persistent": False}),
    (
        "memcached-open-poisson",
        {"arrival": None, "arrival_params": (), "persistent": False},
    ),
    ("hadoop-ramp-mappers", {"persistent": False}),
    ("http-overload-shed", {"key_space": 5}),
    ("http-overload-shed", {"value_bytes": 128}),
    ("http-overload-shed", {"specialised_parser": False}),
    ("http-overload-shed", {"cache_router": True}),
    ("memcached-open-poisson", {"word_len": 12}),
    ("memcached-open-poisson", {"data_kb_per_mapper": 4}),
    ("memcached-open-poisson", {"n_mappers": 2}),
]

CHECK_CASES = [
    ("http-overload-shed", {field: value}) for field, value in UNCHECKED_BEFORE
] + IGNORED_BEFORE


def _case_id(base, fields):
    changes = ",".join(f"{f}={v!r}" for f, v in fields.items())
    return changes if base == "http-overload-shed" else f"{base}:{changes}"


class TestCheck:
    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize(
        "base, fields", CHECK_CASES,
        ids=[_case_id(base, fields) for base, fields in CHECK_CASES],
    )
    def test_the_check_rejects_what_the_run_would(
        self, monkeypatch, base, fields, jobs
    ):
        def never(*args, **kwargs):
            raise AssertionError("a scenario ran before the check failed")

        monkeypatch.setattr(scenarios, "run_experiment", never)
        monkeypatch.setattr(scenarios, "ProcessPoolExecutor", never)
        by_name = {s.name: s for s in SCENARIOS}
        bad = by_name[base]._replace(name="typo", **fields)
        with pytest.raises(ConfigError, match="^scenario 'typo': "):
            run_scenario_matrix(
                (by_name["http-closed-baseline"], bad), quick=True, jobs=jobs
            )


class TestResultsDocument:
    def _doc(self, **scenarios):
        return results_io.results_document(scenarios, quick=True)

    def _entry(self, throughput=100.0, p99=1.0):
        return {
            "throughput": throughput,
            "latency_ms": {"mean": p99 / 2, "p50": p99 / 2, "p99": p99,
                           "max": p99 * 2},
        }

    def test_write_load_roundtrip(self, tmp_path):
        path = tmp_path / "BENCH_scenarios.json"
        document = self._doc(a=self._entry())
        results_io.write_results(path, document)
        assert json.loads(path.read_text()) == document

    def test_written_document_is_stable_text(self, tmp_path):
        path = tmp_path / "r.json"
        results_io.write_results(path, self._doc(a=self._entry()))
        text = path.read_text()
        assert text.endswith("\n")
        assert text == json.dumps(
            json.loads(text), indent=2, sort_keys=True
        ) + "\n"


    @pytest.mark.parametrize("quick", [1, 0])
    def test_envelope_is_versioned_with_a_bool_quick(self, quick):
        scenarios = {"a": self._entry()}
        document = results_io.results_document(scenarios, quick=quick)
        assert document == {
            "schema_version": results_io.SCHEMA_VERSION,
            "benchmark": "scenarios",
            "quick": bool(quick),
            "scenarios": scenarios,
        }
        assert type(document["quick"]) is bool

    def test_write_replaces_the_file_and_returns_its_path(self, tmp_path):
        path = tmp_path / "r.json"
        results_io.write_results(path, self._doc(a=self._entry()))
        document = self._doc(b=self._entry(throughput=50.0))
        assert results_io.write_results(str(path), document) == path
        assert json.loads(path.read_text()) == document


class TestBaselineComparison:
    """The committed documents CI ``cmp``s a fresh run against."""

    def test_committed_baseline_is_schema_valid(self):
        document = json.loads(
            (
                Path(__file__).parent.parent
                / "benchmarks" / "baseline_scenarios.json"
            ).read_text(encoding="utf-8")
        )
        assert document["schema_version"] == results_io.SCHEMA_VERSION
        assert document["quick"] is True
        assert {e["app"] for e in document["scenarios"].values()} == set(
            APPS
        )

    def test_committed_rows_share_one_shape(self):
        """Every committed entry has its kind's keys (a request entry,
        or a job entry), plus ``arrival_gaps_us``, ``faults`` and
        ``cluster`` exactly when its spec turns them on, and a nested
        row has its section's keys (the sharded entries once had no
        ``retried`` class column)."""
        root = Path(__file__).parent.parent
        measured = {
            "app", "arrival", "policy", "topology", "service_classes",
            "cores", "throughput", "throughput_unit", "latency_ms",
            "classes", "steals", "allocator",
        }
        request = {
            "requests", "offered", "completed", "failed", "retried",
            "measured", "errors", "slo", "admission",
        }
        for path, quick in (
            (root / "BENCH_scenarios.json", False),
            (root / "benchmarks" / "baseline_scenarios.json", True),
        ):
            envelope = json.loads(path.read_text(encoding="utf-8"))
            assert envelope["schema_version"] == results_io.SCHEMA_VERSION
            assert envelope["quick"] is quick, path.name
            document = envelope["scenarios"]
            for name, entry in document.items():
                spec = scenarios._BY_NAME[name]
                job = APPS[spec.app].clients is None
                keys = measured | ({"job"} if job else request)
                if not job and spec.arrival is not None:
                    keys.add("arrival_gaps_us")
                if spec.faults is not None:
                    keys.add("faults")
                if spec.shards > 1:
                    keys.add("cluster")
                assert set(entry) == keys, (path.name, name)
                assert not (request & set(entry) if job else "job" in entry)
            entries = document.values()
            rows = {
                "classes": [
                    row for e in entries for row in e["classes"].values()
                ],
                "admission.per_class": [
                    row
                    for e in entries
                    for row in e.get("admission", {})
                    .get("per_class", {})
                    .values()
                ],
            }
            for section, section_rows in rows.items():
                shapes = {tuple(sorted(row)) for row in section_rows}
                assert len(shapes) == 1, (path.name, section, shapes)


class TestClusterScenarioFields:
    def test_matrix_has_the_scaling_curve_and_failover(self):
        by_name = {s.name: s for s in SCENARIOS}
        assert by_name["http-fleet-scale-2"].shards == 2
        assert by_name["http-fleet-scale-4"].shards == 4
        failover = by_name["http-fleet-failover"]
        assert failover.shards == 2
        assert failover.fail_shard_at_us is not None

    def test_shards_below_one_rejected(self):
        with pytest.raises(ConfigError, match="shards must be >= 1"):
            run_scenario(Scenario(
                name="x", app="http_lb", arrival="poisson", shards=0,
            ))

    def test_cluster_knobs_need_shards(self):
        # same no-silent-drop rule as admission/class_mix: cluster knobs
        # on a single-middlebox scenario report a config that never ran
        with pytest.raises(ConfigError, match="needs shards > 1"):
            run_scenario(Scenario(
                name="x", app="http_lb", arrival="poisson",
                routing="least-loaded",
            ))
        with pytest.raises(ConfigError, match="needs shards > 1"):
            run_scenario(Scenario(
                name="x", app="http_lb", arrival="poisson",
                fail_shard_at_us=100.0,
            ))

    def test_cluster_tier_is_http_only(self):
        with pytest.raises(ConfigError, match="http_lb"):
            run_scenario(Scenario(
                name="x", app="memcached_proxy", arrival="poisson",
                shards=2,
            ))

    def test_closed_rule_runs_across_shards(self):
        entry = run_scenario(Scenario(
            name="x", app="http_lb", arrival=None, concurrency=8,
            requests_per_client=10, cores=2, shards=2,
        ))
        assert entry["cluster"]["connections_routed"] == 8
        assert entry["completed"] == entry["offered"] == 80

    def test_unknown_routing_gets_near_miss(self):
        with pytest.raises(ConfigError) as excinfo:
            run_scenario(Scenario(
                name="x", app="http_lb", arrival="poisson",
                shards=2, routing="hash-afinity",
            ))
        assert "did you mean 'hash-affinity'?" in str(excinfo.value)

    def test_nonpositive_fail_time_rejected(self):
        with pytest.raises(ConfigError, match="positive"):
            run_scenario(Scenario(
                name="x", app="http_lb", arrival="poisson",
                shards=2, fail_shard_at_us=0.0,
            ))

    def test_sharded_entry_has_a_cluster_section(self):
        scenario = Scenario(
            name="tiny-fleet", app="http_lb", arrival="poisson",
            arrival_params=(("rate_rps", 30_000.0),),
            concurrency=16, total_requests=256, slo_us=5_000.0, cores=4, shards=2,
        )
        entry = run_scenario(scenario, quick=True)
        cluster = entry["cluster"]
        assert cluster["shards"] == 2
        assert cluster["routing"] == "hash-affinity"
        assert cluster["alive_shards"] == 2
        assert set(cluster["per_shard"]) == {"shard0", "shard1"}
        assert entry["failed"] == 0
        assert entry["completed"] == 256

    def test_single_shard_entry_has_no_cluster_section(self):
        scenario = Scenario(
            name="tiny", app="http_lb", arrival="poisson",
            arrival_params=(("rate_rps", 30_000.0),),
            concurrency=16, total_requests=256, slo_us=2_000.0, cores=4,
        )
        entry = run_scenario(scenario, quick=True)
        assert "cluster" not in entry
        assert entry["failed"] == 0
