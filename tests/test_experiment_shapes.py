"""Fast small-scale shape checks of the experiment harness.

The full figure sweeps live in ``benchmarks/``; these tests exercise the
same code paths at reduced size so ``pytest tests/`` alone still covers
the harness end to end.
"""

import pytest

from repro.bench.scheduling import run_scheduling_experiment
from repro.bench.testbeds import (
    Scenario,
    run_experiment,
    run_hadoop_experiment,
    run_http_experiment,
    run_memcached_experiment,
)


class TestHttpHarness:
    def test_flick_beats_apache_persistent(self):
        flick = run_http_experiment(
            "flick-kernel", 100, True, "lb", 8, requests_per_client=12
        )
        apache = run_http_experiment(
            "apache", 100, True, "lb", 8, requests_per_client=12
        )
        assert flick.throughput > apache.throughput
        assert flick.entry["errors"] == 0

    def test_mtcp_beats_kernel_non_persistent(self):
        kernel = run_http_experiment(
            "flick-kernel", 64, False, "web", 8, requests_per_client=4
        )
        mtcp = run_http_experiment(
            "flick-mtcp", 64, False, "web", 8, requests_per_client=4
        )
        assert mtcp.throughput > 2 * kernel.throughput

    @pytest.mark.parametrize("per_client, warmup", [(1, 0), (2, 1), (3, 2), (30, 3)])
    def test_a_short_closed_run_measures_past_its_warm_up(self, per_client, warmup):
        """The closed rule's warm-up leaves every client one request or
        more to measure, however few it sends; from three requests up it
        is ``max(2, per_client // 10)``."""
        result = run_experiment(Scenario(
            app="http_lb", concurrency=4, requests_per_client=per_client,
            total_requests=None, cores=2,
        ))
        assert result.entry["measured"] == 4 * (per_client - warmup)
        assert result.throughput > 0 and result.latency_ms > 0

    def test_unknown_system_rejected(self):
        with pytest.raises(ValueError):
            run_http_experiment("iis", 10, True, "web", 4)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            run_http_experiment("nginx", 10, True, "proxy", 4)


class TestMemcachedHarness:
    def test_more_cores_more_throughput(self):
        two = run_memcached_experiment(
            "flick-kernel", 2, concurrency=48, requests_per_client=12
        )
        eight = run_memcached_experiment(
            "flick-kernel", 8, concurrency=48, requests_per_client=12
        )
        assert eight.throughput > 2 * two.throughput
        assert eight.latency_ms < two.latency_ms

    def test_moxi_contention_bites_at_sixteen_cores(self):
        four = run_memcached_experiment(
            "moxi", 4, concurrency=48, requests_per_client=12
        )
        sixteen = run_memcached_experiment(
            "moxi", 16, concurrency=48, requests_per_client=12
        )
        assert sixteen.throughput < four.throughput * 1.05

    def test_backend_requests_counted(self):
        result = run_memcached_experiment(
            "flick-kernel", 4, concurrency=24, requests_per_client=10
        )
        assert result.backend_requests == 24 * 10


class TestHadoopHarness:
    def test_scales_with_cores(self):
        one = run_hadoop_experiment(1, word_len=8, data_kb_per_mapper=16)
        eight = run_hadoop_experiment(8, word_len=8, data_kb_per_mapper=16)
        assert eight.throughput > 1.5 * one.throughput

    def test_longer_words_higher_mbps(self):
        short = run_hadoop_experiment(2, word_len=8, data_kb_per_mapper=16)
        long_ = run_hadoop_experiment(2, word_len=16, data_kb_per_mapper=16)
        assert long_.throughput > short.throughput

    def test_reduction_reported(self):
        result = run_hadoop_experiment(4, word_len=8, data_kb_per_mapper=16)
        job = result.entry["job"]
        assert job["egress_bytes"] < job["ingress_bytes"]


class TestSchedulingHarness:
    def test_cooperative_prioritises_light(self):
        result = run_scheduling_experiment(
            "cooperative", n_tasks=60, items_per_task=80, cores=8
        )
        assert result.light_mean_ms < result.heavy_mean_ms / 3

    def test_round_robin_delays_light(self):
        """At small scale the effect is mild (the full-size contrast is
        a claim of the fig7 row in repro.bench.figures); here we only
        require the ordering."""
        coop = run_scheduling_experiment("cooperative", n_tasks=60, items_per_task=80, cores=8)
        rr = run_scheduling_experiment("round_robin", n_tasks=60, items_per_task=80, cores=8)
        assert rr.light_mean_ms > coop.light_mean_ms

    def test_a_run_that_raises_leaves_the_next_run_unchanged(self):
        from repro.runtime.policy import CooperativePolicy

        class FailsMidRun(CooperativePolicy):
            placed = 0

            def place(self, task, workers):
                self.placed += 1
                if self.placed > 40:
                    raise RuntimeError("placement failed")
                return super().place(task, workers)

        def run(policy="cooperative"):
            return run_memcached_experiment(
                "flick-kernel", 4, concurrency=8, requests_per_client=4,
                policy=policy,
            )

        before = run()
        with pytest.raises(RuntimeError, match="placement failed"):
            run(FailsMidRun())
        assert run() == before

    def test_all_policies_complete_all_tasks(self):
        for policy in ("cooperative", "non_cooperative", "round_robin"):
            result = run_scheduling_experiment(
                policy, n_tasks=20, items_per_task=20, cores=4
            )
            assert result.makespan_ms > 0


class TestCli:
    def test_bad_target_rejected(self):
        from repro.bench.cli import main

        with pytest.raises(SystemExit):
            main(["fig99"])
