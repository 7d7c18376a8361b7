"""Arrival-process registry + client population on an arrival clock."""

import itertools
import random

import pytest

from repro.apps import http_lb
from repro.bench.testbeds import N_CLIENT_HOSTS, _build_topology, _edge_hosts
from repro.core.errors import ConfigError
from repro.runtime.admission import AdmissionPolicy
from repro.runtime.costs import RuntimeConfig
from repro.runtime.platform import FlickPlatform
from repro.sim.stats import IntervalSeries, LatencySeries
from repro.workloads.arrivals import (
    HttpRequestCodec,
    ClientPopulation,
    make_arrival,
    registered_arrivals,
)


def take(process, n, seed=7):
    return list(itertools.islice(process.gaps(random.Random(seed)), n))


class TestRegistry:
    def test_builtin_processes_registered(self):
        assert set(registered_arrivals()) >= {
            "poisson", "bursty", "ramp", "replay",
        }

    def test_out_of_range_parameters_are_config_errors(self):
        with pytest.raises(ConfigError, match="must be positive"):
            make_arrival("poisson", rate_rps=-1)

class TestProcesses:
    def test_poisson_mean_gap_matches_rate(self):
        gaps = take(make_arrival("poisson", rate_rps=10_000.0), 4000)
        mean = sum(gaps) / len(gaps)
        assert mean == pytest.approx(100.0, rel=0.1)  # 1e6/10k µs

    def test_same_seed_reproduces_the_gap_sequence(self):
        for name in ("poisson", "bursty"):
            process = make_arrival(name)
            assert take(process, 50, seed=3) == take(process, 50, seed=3)
            assert take(process, 50, seed=3) != take(process, 50, seed=4)

    def test_bursty_realised_rate_is_below_burst_rate(self):
        process = make_arrival(
            "bursty", burst_rate_rps=10_000.0,
            mean_on_us=5_000.0, mean_off_us=5_000.0,
        )
        gaps = take(process, 4000)
        mean = sum(gaps) / len(gaps)
        # 50% duty: the long-run mean gap is ~2x the in-burst gap.
        assert mean == pytest.approx(200.0, rel=0.25)
        assert min(gaps) < 200.0 < max(gaps)

    def test_ramp_gaps_shrink_then_hold_at_end_rate(self):
        process = make_arrival(
            "ramp", start_rps=1_000.0, end_rps=10_000.0,
            duration_us=50_000.0,
        )
        gaps = take(process, 400)
        assert gaps[0] == pytest.approx(1000.0)  # 1e6/start
        assert all(b <= a for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] == pytest.approx(100.0)  # held at 1e6/end

    def test_replay_reproduces_the_trace(self):
        process = make_arrival("replay", timestamps_us=[5, 5, 30, 100])
        assert take(process, 10) == [5.0, 0.0, 25.0, 70.0]

    @pytest.mark.parametrize("name", ["bursty", "poisson", "ramp"])
    def test_stamps_are_the_running_sum_of_gaps(self, name):
        """A generated process's instants are its gaps summed in order,
        the same float additions the clock made when it filed each tick
        a gap after the last."""
        process = make_arrival(name)
        stamps = itertools.islice(process.stamps(random.Random(7)), 200)
        assert list(stamps) == list(itertools.accumulate(take(process, 200)))

    def test_replay_stamps_are_the_trace(self):
        """A trace's instants are its stamps, not its gaps summed back:
        ``305.7 + (834.1 - 305.7)`` lands an ulp above ``834.1``."""
        process = make_arrival("replay", timestamps_us=[305.7, 834.1])
        assert list(process.stamps(random.Random(7))) == [305.7, 834.1]
        assert list(itertools.accumulate(take(process, 2))) != [305.7, 834.1]

    def test_replay_rejects_bad_traces(self):
        with pytest.raises(ConfigError, match="non-empty"):
            make_arrival("replay", timestamps_us=[])
        with pytest.raises(ConfigError, match="backwards"):
            make_arrival("replay", timestamps_us=[10, 5])
        with pytest.raises(ConfigError, match="before time zero"):
            make_arrival("replay", timestamps_us=[-1, 5])


class TestStatsHelpers:
    def test_interval_series_records_gaps_between_observations(self):
        series = IntervalSeries()
        for t in (10.0, 15.0, 35.0):
            series.observe(t)
        assert series.count == 2
        assert series.mean_us() == pytest.approx(12.5)

    def test_percentile_summary_ms_keys(self):
        series = LatencySeries()
        series.record(1000.0)
        summary = series.percentile_summary_ms()
        assert set(summary) == {"mean", "p50", "p99", "max"}
        assert summary["max"] == pytest.approx(1.0)


def _static_web_testbed(cores=4):
    engine, tcpnet, mbox = _build_topology()
    clients = _edge_hosts(tcpnet, "client", N_CLIENT_HOSTS)
    platform = FlickPlatform(
        engine, tcpnet, mbox, RuntimeConfig(cores=cores),
        http_lb.http_codec_registry(),
    )
    platform.register_program(http_lb.compile_static_web(), "StaticWeb", 80)
    platform.start()
    return engine, tcpnet, mbox, clients, platform


class TestOpenLoopClients:
    def test_admission_runs_on_the_arrival_clock(self):
        engine, tcpnet, mbox, clients, _ = _static_web_testbed()
        population = ClientPopulation(
            engine, tcpnet, clients, mbox, 80,
            codec=HttpRequestCodec(),
            arrival=make_arrival("poisson", rate_rps=20_000.0),
            n_requests=300, connections=16, slo_us=5_000.0,
        )
        population.start()
        engine.run()
        assert population.finished
        assert population.offered == 300
        assert population.completed == 300
        assert population.errors == 0
        # every admission tick after the first lands in the gap series
        assert population.inter_arrivals.count == 299
        assert population.latency.count == 300

    def test_slo_misses_are_latencies_strictly_above_the_slo(self):
        """A request that takes exactly the SLO meets it; the population
        counts the measured latencies above it, and nothing else."""

        def run(slo_us):
            engine, tcpnet, mbox, clients, _ = _static_web_testbed()
            population = ClientPopulation(
                engine, tcpnet, clients, mbox, 80,
                codec=HttpRequestCodec(),
                arrival=make_arrival("poisson", rate_rps=20_000.0),
                n_requests=300, connections=16, slo_us=slo_us,
            )
            population.start()
            engine.run()
            return population

        unbounded = run(None)
        assert unbounded.slo_misses == 0
        ordered = sorted(unbounded.latency._samples)
        for slo_us in (ordered[150], ordered[-1], ordered[0] / 2):
            population = run(slo_us)
            assert sorted(population.latency._samples) == ordered
            assert population.slo_misses == sum(
                1 for latency in ordered if latency > slo_us
            )

    def test_a_flushed_backlog_holds_no_deque(self):
        """Requests offered before the connect completes wait in a
        deque; the connect flushes it, and the connection holds ``()``
        again (an empty deque is 760 B on CPython 3.11)."""
        engine, tcpnet, mbox, clients, _ = _static_web_testbed()
        population = ClientPopulation(
            engine, tcpnet, clients, mbox, 80,
            codec=HttpRequestCodec(),
            arrival=make_arrival("replay", timestamps_us=[0.0] * 8),
            n_requests=8, connections=4,
        )
        population.start()
        waiting = []
        engine.schedule(1.0, lambda: waiting.extend(
            len(conn._backlog) for conn in population._conns
        ))
        engine.run()
        assert waiting == [2, 2, 2, 2]
        assert population.finished and population.latency.count == 8
        assert [conn._backlog for conn in population._conns] == [()] * 4

    def test_replay_trace_shorter_than_n_requests_finishes(self):
        engine, tcpnet, mbox, clients, _ = _static_web_testbed()
        population = ClientPopulation(
            engine, tcpnet, clients, mbox, 80,
            codec=HttpRequestCodec(),
            arrival=make_arrival(
                "replay", timestamps_us=[0.0, 100.0, 5_000.0]
            ),
            n_requests=50, connections=4,
        )
        population.start()
        engine.run()
        assert population.finished
        assert population.offered == 3

    @pytest.mark.parametrize("n_requests", [6, 4])
    def test_replay_offers_at_the_trace_instants(self, n_requests):
        """Repeated stamps offer in the same instant, in trace order; a
        trace longer than ``n_requests`` stops at ``n_requests``."""
        stamps = [0.0, 0.0, 5.0, 5.0, 5.0, 30.0]
        engine, tcpnet, mbox, clients, _ = _static_web_testbed()

        class Recording(AdmissionPolicy):
            name = "recording"

            def __init__(self):
                self.offers = []

            def admit(self, request):
                self.offers.append(engine.now)
                return True

        recording = Recording()
        population = ClientPopulation(
            engine, tcpnet, clients, mbox, 80,
            codec=HttpRequestCodec(),
            arrival=make_arrival("replay", timestamps_us=stamps),
            n_requests=n_requests, connections=2, admission=recording,
        )
        population.start()
        engine.run()
        assert population.finished
        assert population.offered == population.completed == n_requests
        assert recording.offers == stamps[:n_requests]
        gaps = [later - earlier for earlier, later in zip(stamps, stamps[1:])]
        assert list(population.inter_arrivals._samples) == (
            gaps[: n_requests - 1]
        )

    def test_replay_fires_at_each_exact_stamp(self):
        """A replayed arrival fires at its stamp, not at the previous
        stamp plus the difference: ``(834.1 - 305.7) + 305.7`` is an
        ulp above ``834.1``."""
        stamps = [305.7, 834.1]
        engine, tcpnet, mbox, clients, _ = _static_web_testbed()
        offers = []

        class Recording(AdmissionPolicy):
            name = "recording"

            def admit(self, request):
                offers.append(engine.now)
                return True

        population = ClientPopulation(
            engine, tcpnet, clients, mbox, 80,
            codec=HttpRequestCodec(),
            arrival=make_arrival("replay", timestamps_us=stamps),
            n_requests=2, admission=Recording(),
        )
        population.start()
        engine.run()
        assert population.completed == 2
        assert offers == stamps

    @pytest.mark.parametrize("name, params", [
        pytest.param("bursty", {}, id="bursty"),
        pytest.param("poisson", {"rate_rps": 20_000.0}, id="poisson"),
        pytest.param("ramp", {}, id="ramp"),
        # Summing this trace's gaps back drifts 13 of its 24 stamps.
        pytest.param("replay", {"timestamps_us": [305.7, 834.1] + [
            834.1 + 97.3 * k for k in range(1, 23)
        ]}, id="replay"),
    ])
    def test_offers_fire_at_the_process_stamps(self, name, params):
        """Every offer lands exactly at its process's stamp, whatever the
        arrival rule: the population seeds the process's ``rng`` and the
        clock fires at each instant it yields."""
        engine, tcpnet, mbox, clients, _ = _static_web_testbed()
        arrival = make_arrival(name, **params)
        offers = []

        class Recording(AdmissionPolicy):
            name = "recording"

            def admit(self, request):
                offers.append(engine.now)
                return True

        population = ClientPopulation(
            engine, tcpnet, clients, mbox, 80,
            codec=HttpRequestCodec(), arrival=arrival,
            n_requests=24, connections=4, admission=Recording(), seed=11,
        )
        population.start()
        engine.run()
        assert population.completed == 24
        assert offers == list(
            itertools.islice(arrival.stamps(random.Random(11)), 24)
        )
        if name == "replay":
            assert offers == params["timestamps_us"]

    def test_throughput_is_zero_before_any_completion(self):
        engine, tcpnet, mbox, clients, _ = _static_web_testbed()
        population = ClientPopulation(
            engine, tcpnet, clients, mbox, 80,
            codec=HttpRequestCodec(), arrival=make_arrival("poisson"),
            n_requests=10,
        )
        assert population.kreqs_per_sec() == 0.0
        population.start()
        assert population.kreqs_per_sec() == 0.0

    def test_throughput_counts_only_measured_completions(self):
        """Warm-up completions end the measured interval but are not
        counted in it, so the same run with one warm-up request per
        connection reports the measured share of the throughput."""

        def run(warmup_requests):
            engine, tcpnet, mbox, clients, _ = _static_web_testbed()
            population = ClientPopulation(
                engine, tcpnet, clients, mbox, 80,
                codec=HttpRequestCodec(),
                arrival=make_arrival(
                    "replay", timestamps_us=[0.0, 0.0, 50.0, 50.0, 90.0, 90.0]
                ),
                n_requests=6, connections=2,
                warmup_requests=warmup_requests,
            )
            population.start()
            engine.run()
            assert population.completed == 6
            return population.latency.count, population.kreqs_per_sec()

        cold_count, cold = run(0)
        warm_count, warm = run(1)
        assert (cold_count, warm_count) == (6, 4)
        assert cold > 0.0
        assert warm == pytest.approx(cold * warm_count / cold_count)

    def test_same_seed_reproduces_the_run(self):
        def run(seed):
            engine, tcpnet, mbox, clients, _ = _static_web_testbed()
            population = ClientPopulation(
                engine, tcpnet, clients, mbox, 80,
                codec=HttpRequestCodec(),
                arrival=make_arrival("poisson", rate_rps=50_000.0),
                n_requests=200, connections=8, seed=seed,
            )
            population.start()
            engine.run()
            return (
                population.latency.mean_us(),
                population.kreqs_per_sec(),
                population.inter_arrivals.mean_us(),
            )

        assert run(11) == run(11)
        assert run(11) != run(12)

    def test_rejects_degenerate_parameters(self):
        engine, tcpnet, mbox, clients, _ = _static_web_testbed()
        with pytest.raises(ValueError, match="n_requests"):
            ClientPopulation(
                engine, tcpnet, clients, mbox, 80,
                codec=HttpRequestCodec(), arrival=make_arrival("poisson"),
                n_requests=0,
            )
        with pytest.raises(ValueError, match="connections"):
            ClientPopulation(
                engine, tcpnet, clients, mbox, 80,
                codec=HttpRequestCodec(), arrival=make_arrival("poisson"),
                n_requests=10, connections=0,
            )
