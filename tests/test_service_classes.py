"""Service-class QoS subsystem: model, parsing, threading, outcomes.

Covers the `repro.runtime.qos` surface end to end:

* :class:`ServiceClass` / :class:`ServiceClassMap` validation and
  program-scoped lookup;
* one spelling: a class map is parsed from specs, and every other
  spelling handed to ``RuntimeConfig``, ``Scenario`` or
  ``run_scheduling_experiment`` is a ``ConfigError`` that names the
  spec form;
* fuzz/round-trip guarantees — random class maps survive their specs
  and ``RuntimeConfig`` unchanged, random well-formed service class
  specs parse to what they say, and malformed specs (unknown endpoint,
  zero/negative SLO, duplicate class) raise the repo's clear-error
  style with near-miss suggestions;
* the task graph stamps each connection task with its endpoint's class
  (platform-wide ``slo_us`` as fallback) and the platform scoreboard
  accounts completions/misses per class;
* the ``deadline`` and ``priority`` policies consume classes (per-class
  EDF, weight-biased picking);
* the acceptance outcome: a two-class gold=1ms / bronze=50ms run under
  ``deadline`` shows strictly fewer gold SLO misses than a single-class
  platform at equal load.
"""

import random
from collections import deque

import pytest

from repro.bench.scheduling import run_scheduling_experiment
from repro.bench.testbeds import Scenario
from repro.core.errors import ConfigError
from repro.net.stackprofiles import TWO_SOCKET
from repro.runtime.costs import RuntimeConfig
from repro.runtime.graph import TaskGraph
from repro.runtime.policy import DeadlinePolicy, PriorityPolicy
from repro.runtime.qos import (
    ServiceClass,
    ServiceClassMap,
    closest_name,
    parse_slo_class,
    parse_slo_class_specs,
)
from repro.runtime.scheduler import Scheduler
from repro.sim.engine import Engine
from repro.sim.stats import SloScoreboard

from tests.item_task import ItemTask

GOLD = ServiceClass("gold", slo_us=1_000.0, weight=4.0)
BRONZE = ServiceClass("bronze", slo_us=50_000.0)
#: The Figure 7 workload's endpoints as the two tiers above.
TWO_TIERS = parse_slo_class_specs(["light=gold:1000@4", "heavy=bronze:50000"])


class TestServiceClassModel:
    def test_fields(self):
        assert GOLD.name == "gold"
        assert GOLD.slo_us == 1_000.0
        assert GOLD.weight == 4.0
        assert BRONZE.weight == 1.0  # default

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(name="", slo_us=100.0),
            dict(name="   ", slo_us=100.0),
            dict(name="x", slo_us=0.0),
            dict(name="x", slo_us=-5.0),
            dict(name="x", slo_us="fast"),
            dict(name="x", slo_us=100.0, weight=0.0),
            dict(name="x", slo_us=100.0, weight=-1.0),
        ],
    )
    def test_invalid_classes_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            ServiceClass(**kwargs)


class TestServiceClassMap:
    def test_lookup_by_endpoint_name(self):
        class_map = parse_slo_class_specs(
            ["gold=gold:1000@4", "client=bronze:50000"]
        )
        assert class_map.class_for("gold") == GOLD
        assert class_map.class_for("client") == BRONZE
        assert class_map.class_for("unknown") is None
        assert class_map.class_for(None) is None

    def test_a_program_scoped_key_is_rejected(self):
        """An endpoint means one tier in every program: a spec naming
        ``Program:endpoint`` would classify nothing, so it is refused
        with the one spelling."""
        for spec in ("Gold:client=750", "Gold:client=gold:1000@4"):
            with pytest.raises(ConfigError) as excinfo:
                parse_slo_class_specs([spec])
            message = str(excinfo.value)
            assert "malformed service class spec" in message
            assert repr(spec) in message
            assert "endpoint=[name:]slo_us[@weight]" in message

    def test_duplicate_endpoint_rejected(self):
        class_map = parse_slo_class_specs(["client=gold:1000@4"])
        with pytest.raises(ConfigError, match="already has service class"):
            class_map.assign("client", BRONZE)

    def test_one_class_name_many_endpoints_is_fine(self):
        class_map = parse_slo_class_specs(["a=gold:1000@4", "b=gold:1000@4"])
        assert class_map.class_for("a") == class_map.class_for("b") == GOLD

    def test_conflicting_class_redefinition_rejected(self):
        class_map = ServiceClassMap()
        class_map.assign("a", ServiceClass("gold", 1_000.0))
        with pytest.raises(ConfigError, match="defined twice"):
            class_map.assign("b", ServiceClass("gold", 2_000.0))


#: Every spelling of a class map but specs (and the parsed map where a
#: run takes one), and of a topology but a registered name, at each
#: entry point that takes it: (call, the error's spec-form fragment).
OTHER_SPELLINGS = {
    "config-dict": (
        lambda: RuntimeConfig(service_classes={"client": 500.0}),
        "parse_slo_class_specs",
    ),
    "config-number": (
        lambda: RuntimeConfig(service_classes=42), "parse_slo_class_specs"
    ),
    "scenario-map": (
        lambda: Scenario(
            app="http_lb",
            service_classes=parse_slo_class_specs(["client=gold:2000@2"]),
        ).check(),
        "endpoint=[name:]slo_us[@weight]",
    ),
    "scenario-dict": (
        lambda: Scenario(
            app="http_lb", service_classes={"client": 500.0}
        ).check(),
        "endpoint=[name:]slo_us[@weight]",
    ),
    "scenario-topology": (
        lambda: Scenario(app="http_lb", topology=TWO_SOCKET).check(),
        "registered name",
    ),
    "scheduling-dict": (
        lambda: run_scheduling_experiment(
            "deadline", n_tasks=2, items_per_task=1, cores=1,
            service_classes={"light": GOLD},
        ),
        "parse_slo_class_specs",
    ),
}


class TestOneSpelling:
    @pytest.mark.parametrize("case", sorted(OTHER_SPELLINGS))
    def test_other_spellings_are_rejected_naming_the_spec_form(self, case):
        call, fragment = OTHER_SPELLINGS[case]
        with pytest.raises(ConfigError) as excinfo:
            call()
        assert fragment in str(excinfo.value)


class TestSloClassSpecParsing:
    def test_bare_spec(self):
        endpoint, cls = parse_slo_class("gold=1000")
        assert endpoint == "gold"
        assert cls == ServiceClass("gold", 1_000.0)

    def test_named_weighted_spec(self):
        endpoint, cls = parse_slo_class("client=gold:1000@4")
        assert endpoint == "client"
        assert cls == ServiceClass("gold", 1_000.0, weight=4.0)

    def test_specs_build_a_map(self):
        class_map = parse_slo_class_specs(
            ["light=gold:1000@4", "heavy=bronze:50000"],
            valid_endpoints=("light", "heavy"),
        )
        assert class_map.class_for("light").name == "gold"
        assert class_map.class_for("heavy").slo_us == 50_000.0

    @pytest.mark.parametrize(
        "spec, fragment",
        [
            ("gold", "expected endpoint="),
            ("=1000", "empty endpoint"),
            ("gold=fast", "is not a number"),
            ("light=gold:fast", "is not a number of µs"),
            ("gold=0", "needs a positive SLO"),
            ("gold=-3", "needs a positive SLO"),
            ("gold=1000@heavy", "is not a number"),
            ("gold=1000@0", "needs a positive weight"),
            ("gold=1000@-2", "needs a positive weight"),
        ],
    )
    def test_malformed_specs_have_clear_errors(self, spec, fragment):
        with pytest.raises(
            ConfigError, match="malformed service class spec"
        ) as excinfo:
            parse_slo_class(spec)
        assert fragment in str(excinfo.value)

    def test_unknown_endpoint_suggests_near_miss(self):
        with pytest.raises(ConfigError) as excinfo:
            parse_slo_class("ligth=1000", valid_endpoints=("light", "heavy"))
        message = str(excinfo.value)
        assert "unknown endpoint 'ligth'" in message
        assert "did you mean 'light'?" in message

    def test_unknown_endpoint_without_near_miss(self):
        with pytest.raises(ConfigError) as excinfo:
            parse_slo_class("zzz=1000", valid_endpoints=("light", "heavy"))
        assert "did you mean" not in str(excinfo.value)

    def test_duplicate_endpoint_spec_rejected(self):
        with pytest.raises(ConfigError, match="already has service class"):
            parse_slo_class_specs(["gold=1000", "gold=2000"])

    def test_duplicate_class_with_conflicting_slo_rejected(self):
        with pytest.raises(ConfigError, match="defined twice"):
            parse_slo_class_specs(["a=gold:1000", "b=gold:2000"])

    def test_closest_name_separator_slips(self):
        assert closest_name("hea_vy", ("light", "heavy")) == "heavy"
        assert closest_name("zzzzqq", ("light", "heavy")) is None


class TestConfigRoundTrip:
    def test_map_instance_passes_through(self):
        class_map = parse_slo_class_specs(["client=gold:1000@4"])
        config = RuntimeConfig(service_classes=class_map)
        assert config.service_classes is class_map

    def test_invalid_classes_surface_as_value_errors(self):
        with pytest.raises(ValueError, match="positive"):
            RuntimeConfig(
                service_classes=parse_slo_class_specs(["client=-1"])
            )
        with pytest.raises(ValueError, match="parse_slo_class_specs"):
            RuntimeConfig(service_classes=42)

    @pytest.mark.parametrize("seed", range(8))
    def test_fuzzed_maps_survive_config_round_trips(self, seed):
        """Random well-formed class maps, written out as specs, parse
        back without loss — endpoints, SLOs and weights all survive —
        and RuntimeConfig keeps the parsed map."""
        rng = random.Random(seed)
        entries = {}
        for index in range(rng.randint(1, 6)):
            endpoint = f"ep{index}"
            slo = rng.choice((10.0, 500.0, 1_000.0, 50_000.0)) * (
                1 + rng.random()
            )
            weight = rng.choice((1.0, 2.0, 4.0, 8.0))
            entries[endpoint] = ServiceClass(
                f"class{index}", slo_us=slo, weight=weight
            )
        original = ServiceClassMap()
        for endpoint, cls in entries.items():
            original.assign(endpoint, cls)
        parsed = parse_slo_class_specs(
            [
                f"{endpoint}={cls.name}:{cls.slo_us!r}@{cls.weight!r}"
                for endpoint, cls in entries.items()
            ]
        )
        assert parsed._by_endpoint == original._by_endpoint
        assert RuntimeConfig(service_classes=parsed).service_classes is parsed
        for endpoint, cls in entries.items():
            assert parsed.class_for(endpoint) == cls

    @pytest.mark.parametrize("seed", range(8))
    def test_fuzzed_specs_parse_to_what_they_say(self, seed):
        """Random well-formed service class specs round-trip: the parsed
        map reports exactly the endpoint/name/SLO/weight spelled out."""
        rng = random.Random(100 + seed)
        specs = []
        expected = {}
        for index in range(rng.randint(1, 5)):
            endpoint = f"ep{index}"
            name = f"tier{index}" if rng.random() < 0.5 else endpoint
            slo = round(rng.uniform(1.0, 90_000.0), 3)
            weight = round(rng.uniform(0.25, 16.0), 3)
            spec = f"{endpoint}="
            if name != endpoint:
                spec += f"{name}:"
            spec += f"{slo}"
            if rng.random() < 0.5:
                spec += f"@{weight}"
            else:
                weight = 1.0
            specs.append(spec)
            expected[endpoint] = ServiceClass(name, slo, weight)
        class_map = parse_slo_class_specs(specs)
        for endpoint, cls in expected.items():
            assert class_map.class_for(endpoint) == cls


class TestGraphStamping:
    def _bare_graph(self, config):
        graph = object.__new__(TaskGraph)
        graph.config = config
        graph.tasks = []
        return graph

    def test_classified_endpoint_overrides_platform_slo(self):
        config = RuntimeConfig(
            slo_us=9_000.0,
            service_classes=parse_slo_class_specs(["client=gold:1000@4"]),
        )
        graph = self._bare_graph(config)
        task = ItemTask("t", 1, 1.0, 1)
        graph._add_task(task, endpoint="client")
        assert task.service_class == GOLD
        assert task.slo_us == GOLD.slo_us

    def test_unclassified_endpoint_falls_back_to_platform_slo(self):
        config = RuntimeConfig(
            slo_us=9_000.0,
            service_classes=parse_slo_class_specs(["client=gold:1000@4"]),
        )
        graph = self._bare_graph(config)
        task = ItemTask("t", 1, 1.0, 1)
        graph._add_task(task, endpoint="backends")
        assert task.service_class is None
        assert task.slo_us == 9_000.0

    def test_an_endpoint_name_selects_the_class_in_every_graph(self):
        config = RuntimeConfig(
            service_classes=parse_slo_class_specs(
                ["gold=gold:1000@4", "client=bronze:50000"]
            )
        )
        gold_task = ItemTask("g", 1, 1.0, 1)
        self._bare_graph(config)._add_task(gold_task, endpoint="gold")
        bronze_tasks = [ItemTask(f"b{i}", 1, 1.0, 2 + i) for i in range(2)]
        for task in bronze_tasks:
            self._bare_graph(config)._add_task(task, endpoint="client")
        assert gold_task.service_class == GOLD
        assert [t.service_class for t in bronze_tasks] == [BRONZE, BRONZE]

    def test_no_endpoint_no_class(self):
        config = RuntimeConfig(
            service_classes=parse_slo_class_specs(["client=gold:1000@4"])
        )
        graph = self._bare_graph(config)
        task = ItemTask("t", 1, 1.0, 1)
        graph._add_task(task)  # e.g. the compute task
        assert task.service_class is None
        assert not hasattr(task, "slo_us")


def watch_periods(scoreboard):
    """Wrap ``scoreboard``'s ``record`` on the instance; return the list
    of busy periods it fills, each the call's arguments: ``(task,
    service_class, admitted_us, completed_us, slo_us)``."""
    periods = []
    record = scoreboard.record

    def recording(*args):
        periods.append(args)
        record(*args)

    scoreboard.record = recording
    return periods


class TestScoreboard:
    def test_rejects_time_travel(self):
        scoreboard = SloScoreboard()
        task = ItemTask("t", 1, 1.0, 1)
        with pytest.raises(ValueError, match="'t' completed at 5.0"):
            scoreboard.record(task, "gold", 10.0, 5.0, 100.0)
        # Rejected before anything is kept: no class, no sample.
        assert scoreboard.total_completions == 0
        assert scoreboard.summary() == {}
        scoreboard.record(task, "gold", 10.0, 50.0, 100.0)
        assert scoreboard.total_completions == 1

    def test_counts_and_misses(self):
        scoreboard = SloScoreboard()
        tasks = [ItemTask(name, 1, 1.0, i) for i, name in enumerate("abcde")]
        scoreboard.record(tasks[0], "gold", 0.0, 500.0, 1_000.0)  # met
        scoreboard.record(tasks[1], "gold", 0.0, 1_500.0, 1_000.0)  # missed
        scoreboard.record(tasks[2], "bronze", 0.0, 400.0, 50_000.0)
        scoreboard.record(tasks[3], "default", 0.0, 9.0)  # no SLO, no miss
        # Draining exactly at the deadline meets it.
        scoreboard.record(tasks[4], "gold", 100.0, 1_100.0, 1_000.0)
        assert scoreboard.total_completions == 5
        summary = scoreboard.summary()
        # Classes in the order they first closed a busy period.
        assert {n: s["completions"] for n, s in summary.items()} == {
            "gold": 3, "bronze": 1, "default": 1
        }
        assert list(summary) == ["gold", "bronze", "default"]
        assert {n: s["misses"] for n, s in summary.items()} == {
            "gold": 1, "bronze": 0, "default": 0
        }
        assert summary["gold"]["mean_ms"] == pytest.approx(1.0)
        assert summary["gold"]["max_ms"] == pytest.approx(1.5)
        assert summary["default"]["mean_ms"] == pytest.approx(0.009)

    def test_scheduler_accounts_classified_tasks(self):
        engine = Engine()
        scheduler = Scheduler(engine, 2, "deadline")
        periods = watch_periods(scheduler.scoreboard)
        gold_task = ItemTask("g", 4, 2.0, next(engine.task_ids))
        gold_task.service_class = GOLD
        gold_task.slo_us = GOLD.slo_us
        plain = ItemTask("p", 4, 2.0, next(engine.task_ids))
        scheduler.start()
        scheduler.notify_runnable(gold_task)
        scheduler.notify_runnable(plain)
        engine.run()
        summary = scheduler.scoreboard.summary()
        assert {n: s["completions"] for n, s in summary.items()} == {
            "gold": 1, "default": 1
        }
        (task, class_name, admitted_us, completed_us, slo_us), = (
            period for period in periods if period[0] is gold_task
        )
        assert class_name == "gold" and slo_us == GOLD.slo_us
        assert admitted_us == 0.0
        assert completed_us <= admitted_us + slo_us
        assert summary["gold"]["misses"] == 0

    def test_readmission_opens_a_new_busy_period(self):
        engine = Engine()
        scheduler = Scheduler(engine, 1, "cooperative")
        periods = watch_periods(scheduler.scoreboard)
        task = ItemTask("t", 3, 2.0, next(engine.task_ids))
        scheduler.start()
        scheduler.notify_runnable(task)
        engine.run()
        task.remaining = 2  # new work arrives later
        scheduler.notify_runnable(task)
        engine.run()
        stamps = [(p[2], p[3]) for p in periods if p[0] is task]
        assert len(stamps) == 2
        (first_admitted, first_completed), (admitted, _) = stamps
        assert admitted > first_admitted
        assert admitted >= first_completed
        assert scheduler.scoreboard.total_completions == 2


class TestPolicyConsumption:
    def test_deadline_and_priority_declare_class_support(self):
        assert DeadlinePolicy.supports_service_classes
        assert PriorityPolicy.supports_service_classes

    def test_deadline_uses_class_slo_as_fallback(self):
        policy = DeadlinePolicy(default_slo_us=99_999.0)
        task = ItemTask("t", 1, 1.0, 1)
        task.service_class = GOLD  # classified but never slo-stamped
        assert policy.deadline_of(task) == GOLD.slo_us

    def test_priority_prefers_heavier_class_at_equal_cost(self):
        policy = PriorityPolicy(smoothing=0.5)
        bronze_task = ItemTask("b", 1, 1.0, 2)
        bronze_task.service_class = BRONZE
        gold_task = ItemTask("g", 1, 1.0, 1)
        gold_task.service_class = GOLD
        for task in (bronze_task, gold_task):
            policy.on_task_done(task, None, 10.0)  # identical cost

        class _W:
            pass

        worker = _W()
        worker.queue = deque([bronze_task, gold_task])
        assert policy.next_local(worker) is gold_task
        assert list(worker.queue) == [bronze_task]

    def test_priority_weight_divides_observed_cost(self):
        """A gold task 3x as expensive as a bronze one still wins when
        its weight advantage (4x) outweighs the cost gap."""
        policy = PriorityPolicy(smoothing=0.5)
        bronze_task = ItemTask("b", 1, 1.0, 2)
        bronze_task.service_class = BRONZE
        gold_task = ItemTask("g", 1, 1.0, 1)
        gold_task.service_class = GOLD
        policy.on_task_done(bronze_task, None, 10.0)  # score 10/1
        policy.on_task_done(gold_task, None, 30.0)  # score 30/4 = 7.5

        class _W:
            pass

        worker = _W()
        worker.queue = deque([bronze_task, gold_task])
        assert policy.next_local(worker) is gold_task

    def test_unclassified_tasks_keep_the_pre_qos_order(self):
        policy = PriorityPolicy(smoothing=0.5)
        a, b = ItemTask("a", 1, 1.0, 1), ItemTask("b", 1, 1.0, 2)
        policy.on_task_done(a, None, 30.0)
        policy.on_task_done(b, None, 5.0)

        class _W:
            pass

        worker = _W()
        worker.queue = deque([a, b])
        assert policy.next_local(worker) is b


class TestPlatformEndToEnd:
    def _run_two_tier_platform(self):
        from repro import FlickPlatform, compile_source
        from repro.apps import http_lb
        from repro.core.units import GBPS
        from repro.net.tcp import TcpNetwork
        from repro.workloads.arrivals import ClientPopulation, HttpRequestCodec

        source = """
type http_req: record
    method : string
    path : string

type http_resp: record
    status : integer
    body : string

proc Gold: (http_req/http_resp gold)
    gold => respond() => gold

proc Bronze: (http_req/http_resp bronze)
    bronze => respond() => bronze

fun respond: (req: http_req) -> (http_resp)
    http_resp(200, "ok")
"""
        engine = Engine()
        net = TcpNetwork(engine)
        mbox = net.add_host("mbox", 10 * GBPS, "core")
        gold_hosts = [net.add_host("gc", 1 * GBPS, "edge")]
        bronze_hosts = [net.add_host("bc", 1 * GBPS, "edge")]
        config = RuntimeConfig(
            cores=4,
            policy="deadline",
            service_classes=parse_slo_class_specs(
                ["gold=gold:1000@4", "bronze=bronze:50000"]
            ),
        )
        platform = FlickPlatform(
            engine, net, mbox, config, http_lb.http_codec_registry()
        )
        program = compile_source(source)
        platform.register_program(program, "Gold", 8001)
        platform.register_program(program, "Bronze", 8002)
        periods = watch_periods(platform.scoreboard)
        platform.start()
        pops = []
        for hosts, port in ((gold_hosts, 8001), (bronze_hosts, 8002)):
            pop = ClientPopulation(
                engine, net, hosts, mbox, port, HttpRequestCodec(),
                connections=4, n_requests=6, warmup_requests=0,
            )
            pop.start()
            pops.append(pop)
        engine.run()
        return platform, pops, periods

    def test_two_programs_account_under_their_own_classes(self):
        platform, pops, periods = self._run_two_tier_platform()
        assert all(pop.finished and pop.errors == 0 for pop in pops)
        summary = platform.scoreboard.summary()
        assert summary["gold"]["completions"] > 0
        assert summary["bronze"]["completions"] > 0
        # Classified busy periods carry their class SLO, and the
        # connection tasks really are the programs' endpoint tasks.
        for _, class_name, _, _, slo_us in periods:
            if class_name == "gold":
                assert slo_us == GOLD.slo_us
            elif class_name == "bronze":
                assert slo_us == BRONZE.slo_us
        # The compute stage — the request processing itself — is
        # classified too, not just the socket tasks around it.
        compute_classes = {
            class_name
            for task, class_name, *_ in periods
            if task.name.endswith(":compute")
        }
        assert {"gold", "bronze"} <= compute_classes


class TestTwoClassOutcome:
    """The ISSUE's acceptance criterion, asserted in a test."""

    KWARGS = dict(n_tasks=40, items_per_task=40, cores=8)

    def test_gold_misses_strictly_fewer_than_single_class(self, monkeypatch):
        """gold=1ms/bronze=50ms under 'deadline' beats a single-class
        platform at equal load: strictly fewer gold SLO misses, where
        gold is the light half of the workload in both runs."""
        light_misses = []
        record = SloScoreboard.record

        def recording(board, task, class_name, admitted_us, completed_us, slo_us):
            if task.name.startswith("light"):
                light_misses.append(completed_us > admitted_us + slo_us)
            record(board, task, class_name, admitted_us, completed_us, slo_us)

        monkeypatch.setattr(SloScoreboard, "record", recording)
        run_scheduling_experiment(
            "deadline",
            service_classes=parse_slo_class_specs(
                ["light=uniform:1000", "heavy=uniform:1000"]
            ),
            **self.KWARGS,
        )
        monkeypatch.undo()
        tiered = run_scheduling_experiment(
            "deadline", service_classes=TWO_TIERS, **self.KWARGS
        )
        # Gold population = the light tasks, in both runs.
        assert len(light_misses) == self.KWARGS["n_tasks"] / 2
        single_gold_misses = sum(light_misses)
        gold_stats = tiered.class_stats["gold"]
        assert gold_stats["completions"] == self.KWARGS["n_tasks"] / 2
        assert gold_stats["misses"] < single_gold_misses
        # And the differentiation is real: bronze absorbed the slack.
        assert tiered.class_stats["bronze"]["misses"] == 0
        assert single_gold_misses > self.KWARGS["n_tasks"] / 4

    def test_two_class_run_is_deterministic(self):
        runs = [
            run_scheduling_experiment(
                "deadline", service_classes=TWO_TIERS, **self.KWARGS
            )
            for _ in range(2)
        ]
        assert runs[0] == runs[1]
        assert runs[0].class_stats == runs[1].class_stats
