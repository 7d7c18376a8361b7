"""Cluster tier: routing-policy registry/decisions, shard-router
mechanism, fleet scoreboard, and end-to-end sharded runs (including
mid-run shard failure) over the simulated network."""

import pytest

from repro.bench.testbeds import run_http_experiment
from repro.cluster import (
    FleetView,
    HashRing,
    ShardRouter,
    ShardSnapshot,
    make_routing,
    registered_routings,
)
from repro.core.errors import ConfigError, SimulationError
from repro.core.units import GBPS
from repro.net.tcp import TcpNetwork
from repro.sim.engine import Engine
from repro.sim.stats import class_summary
from repro.workloads.arrivals import make_arrival


class _StubBoard:
    total_completions = 0


def _view(connections, ring=None):
    """A fleet of ``len(connections)`` live shards with those loads."""
    if ring is None:
        ring = HashRing(range(len(connections)))
    return FleetView(
        ring=ring, shards=tuple(ShardSnapshot(n) for n in connections)
    )


class _StubPlatform:
    def __init__(self, host):
        self.host = host
        self.scoreboard = _StubBoard()


class TestRoutingRegistry:
    def test_builtins_registered_default_first(self):
        names = registered_routings()
        assert names[0] == "hash-affinity"
        assert set(names) >= {"hash-affinity", "least-loaded"}


class TestHashAffinityPolicy:
    def test_is_the_pure_ring_owner(self):
        policy = make_routing("hash-affinity")
        view = _view([0, 0, 0])
        for i in range(50):
            key = f"conn-{i}"
            assert policy.choose_shard(key, view) == view.ring.lookup(key)

    def test_ignores_connection_counts(self):
        policy = make_routing("hash-affinity")
        ring = HashRing([0, 1, 2])
        idle, skewed = _view([0, 0, 0], ring), _view([500, 0, 9], ring)
        for i in range(50):
            key = f"conn-{i}"
            assert policy.choose_shard(key, skewed) == policy.choose_shard(
                key, idle
            )

    def test_a_removed_shard_moves_only_its_own_keys(self):
        policy = make_routing("hash-affinity")
        full, shrunk = HashRing([0, 1, 2]), HashRing([0, 2])
        for i in range(200):
            key = f"conn-{i}"
            before = policy.choose_shard(key, _view([0, 0, 0], full))
            after = policy.choose_shard(key, _view([0, 0, 0], shrunk))
            assert after != 1
            if before != 1:
                assert after == before


class TestLeastLoadedPolicy:
    def test_picks_the_less_loaded_of_two_candidates(self):
        policy = make_routing("least-loaded")
        ring = HashRing([0, 1])
        first, second = ring.lookup_chain("conn-7", 2)
        loads = {first: 10, second: 2}
        view = _view([loads[0], loads[1]], ring=ring)
        assert policy.choose_shard("conn-7", view) == second

    def test_tie_goes_to_the_ring_owner(self):
        policy = make_routing("least-loaded")
        ring = HashRing([0, 1])
        view = _view([0, 0], ring=ring)
        assert policy.choose_shard("conn-7", view) == ring.lookup("conn-7")

    def test_single_shard_chain_degenerates_to_lookup(self):
        policy = make_routing("least-loaded")
        view = _view([99])
        assert policy.choose_shard("anything", view) == 0

    def test_only_the_two_ring_candidates_compete(self):
        policy = make_routing("least-loaded")
        ring = HashRing([0, 1, 2])
        for i in range(50):
            key = f"conn-{i}"
            first, second = ring.lookup_chain(key, 2)
            (third,) = {0, 1, 2} - {first, second}
            loads = [5, 5, 5]
            loads[third] = 0  # the idlest shard is not a candidate
            assert policy.choose_shard(key, _view(loads, ring)) == first

    def test_a_shard_off_the_ring_is_never_chosen(self):
        policy = make_routing("least-loaded")
        ring = HashRing([0, 2])  # shard 1 is dead: index kept, ring left
        view = _view([7, 0, 7], ring)
        for i in range(50):
            assert policy.choose_shard(f"conn-{i}", view) in (0, 2)


class TestShardRouterMechanism:
    def _router(self, n_shards=2):
        engine = Engine()
        tcpnet = TcpNetwork(engine)
        front = tcpnet.add_host("front", 10 * GBPS, "core")
        router = ShardRouter(engine, tcpnet, front, 80)
        for i in range(n_shards):
            host = tcpnet.add_host(f"s{i}", 10 * GBPS, "core")
            router.add_shard(_StubPlatform(host), 80)
        return router

    def test_start_without_shards_rejected(self):
        engine = Engine()
        tcpnet = TcpNetwork(engine)
        front = tcpnet.add_host("front", 10 * GBPS, "core")
        with pytest.raises(SimulationError, match="at least one shard"):
            ShardRouter(engine, tcpnet, front, 80).start()

    def test_shard_may_not_share_the_router_host(self):
        engine = Engine()
        tcpnet = TcpNetwork(engine)
        front = tcpnet.add_host("front", 10 * GBPS, "core")
        router = ShardRouter(engine, tcpnet, front, 80)
        with pytest.raises(SimulationError, match="own"):
            router.add_shard(_StubPlatform(front), 80)

    def test_unknown_routing_rejected_at_construction(self):
        engine = Engine()
        tcpnet = TcpNetwork(engine)
        front = tcpnet.add_host("front", 10 * GBPS, "core")
        with pytest.raises(ConfigError, match="least-loaded"):
            ShardRouter(engine, tcpnet, front, 80, routing="least-loadd")

    def test_fail_shard_is_idempotent_and_logged(self):
        router = self._router()
        assert router.alive_shards == 2
        router.fail_shard(1)
        assert router.alive_shards == 1
        assert router.failed_shards == [1]
        assert 1 not in router._ring._shards
        # failing a dead shard is a no-op, not an error
        assert router.fail_shard(1) == 0
        assert router.failed_shards == [1]

    def test_view_snapshots_each_shards_router_side_connections(self):
        router = self._router(n_shards=3)
        for shard, connections in zip(router._shards, (4, 0, 9)):
            shard.connections = connections
        view = router._view()
        assert view.ring is router._ring
        assert view.shards == (
            ShardSnapshot(4), ShardSnapshot(0), ShardSnapshot(9)
        )

    def test_view_keeps_a_failed_shard_index_aligned(self):
        router = self._router(n_shards=3)
        router.fail_shard(1)
        view = router._view()
        assert len(view.shards) == 3
        assert 1 not in view.ring._shards
        for i in range(50):
            assert router.policy.choose_shard(f"conn-{i}", view) != 1

    @pytest.mark.parametrize("closer", ["client", "shard"])
    def test_a_close_at_either_end_releases_the_pipe(self, closer):
        router = self._router()
        tcpnet = router.tcpnet
        shard_ends, client_ends = [], []
        for shard in router._shards:
            tcpnet.listen(shard.host, 80, shard_ends.append)
        router.start()
        client = tcpnet.add_host("client", 10 * GBPS, "core")
        tcpnet.connect(client, router.host, 80, client_ends.append)
        router.engine.run()
        assert len(shard_ends) == len(client_ends) == 1 and router._pipes
        (client_ends if closer == "client" else shard_ends)[0].close()
        router.engine.run()
        assert not router._pipes
        assert [shard.connections for shard in router._shards] == [0, 0]

    def test_fail_shard_at_bad_index_rejected(self):
        router = self._router()
        with pytest.raises(SimulationError, match="no shard 7"):
            router.fail_shard_at(7, 1000.0)

    def test_shard_report_shape(self):
        router = self._router()
        router.fail_shard(0)
        report = router.shard_report()
        assert set(report) == {"shard0", "shard1"}
        assert report["shard0"]["alive"] is False
        assert report["shard0"]["failed_at_us"] == 0.0
        assert report["shard1"]["alive"] is True
        assert report["shard1"]["failed_at_us"] is None


def _fleet_run(**kw):
    defaults = dict(
        mode="lb",
        cores=4,
        arrival=make_arrival("poisson", rate_rps=20_000.0),
        total_requests=2000,
        slo_us=5000.0,
        shards=2,
    )
    defaults.update(kw)
    return run_http_experiment("flick-kernel", 32, **defaults)


class TestShardedRuns:
    def test_two_shards_complete_everything(self):
        result = _fleet_run()
        cluster = result.entry["cluster"]
        assert cluster["shards"] == 2
        assert cluster["alive_shards"] == 2
        assert cluster["connections_routed"] == 32
        assert cluster["failed_over_connections"] == 0
        assert result.entry["completed"] == 2000
        assert result.entry["failed"] == 0
        # every shard took a ring segment's worth of connections
        routed = [
            cluster["per_shard"][f"shard{i}"]["routed_connections"]
            for i in (0, 1)
        ]
        assert all(n > 0 for n in routed)
        assert sum(routed) == 32
        # the fleet scoreboard aggregates per-class server-side stats
        assert result.entry["classes"]["default"]["completions"] > 0

    def test_sharded_runs_are_deterministic(self):
        assert _fleet_run() == _fleet_run()

    @pytest.mark.parametrize("name", registered_routings())
    def test_reused_routing_instance_same_result(self, name):
        """One ready routing policy serving two runs routes the second as
        it routed the first: a routing policy keeps no per-run state, so
        nothing resets it between runs."""
        routing = make_routing(name)
        first = _fleet_run(routing=routing, shards=4)
        second = _fleet_run(routing=routing, shards=4)
        assert first.entry["cluster"]["routing"] == name
        assert first == second

    def test_least_loaded_routing_spreads_connections_evenly(self):
        result = _fleet_run(routing="least-loaded", shards=4)
        per_shard = result.entry["cluster"]["per_shard"]
        routed = [
            per_shard[f"shard{i}"]["routed_connections"] for i in range(4)
        ]
        # d=2 choices: 32 conns over 4 shards stays near 8 per shard
        assert max(routed) - min(routed) <= 2

    def test_mid_run_shard_failure_degrades_without_collapse(self):
        result = _fleet_run(total_requests=4000, fail_shard_at_us=50_000.0)
        cluster = result.entry["cluster"]
        assert cluster["alive_shards"] == 1
        assert cluster["failed_shards"] == [1]
        assert cluster["per_shard"]["shard1"]["alive"] is False
        assert cluster["per_shard"]["shard1"]["failed_at_us"] == 50_000.0
        assert cluster["failed_over_connections"] > 0
        failed = result.entry["failed"]
        completed = result.entry["completed"]
        # only the in-flight window of severed connections is lost;
        # everything offered afterwards lands on the survivor
        assert 0 < failed < 0.05 * 4000
        assert completed + failed == result.entry["admission"]["admitted"] == 4000
        # the survivor absorbed the re-homed flows and kept serving
        assert (
            cluster["per_shard"]["shard0"]["routed_connections"]
            > cluster["per_shard"]["shard1"]["routed_connections"]
        )
        assert result.throughput > 0

    def test_failure_accounting_reaches_admission_summary(self):
        result = _fleet_run(
            total_requests=4000,
            fail_shard_at_us=50_000.0,
            class_mix=(("gold", 1.0), ("bronze", 1.0)),
        )
        per_class = result.entry["admission"]["per_class"]
        assert set(per_class) == {"gold", "bronze"}
        total_failed = sum(c["failed"] for c in per_class.values())
        assert total_failed == result.entry["failed"] > 0

    def test_cluster_tier_rejects_bad_configs(self):
        with pytest.raises(ValueError, match="shards must be >= 1"):
            run_http_experiment("flick-kernel", 8, shards=0)
        with pytest.raises(ValueError, match="cost-model baseline"):
            run_http_experiment(
                "nginx", 8, shards=2,
                arrival=make_arrival("poisson", rate_rps=1000.0),
            )
        with pytest.raises(ValueError, match="needs shards > 1"):
            run_http_experiment(
                "flick-kernel", 8, shards=1, fail_shard_at_us=10.0
            )
        with pytest.raises(ValueError, match="needs shards > 1"):
            run_http_experiment(
                "flick-kernel", 8, shards=1, routing="least-loaded"
            )

    @pytest.mark.parametrize("shards", [1, 2])
    def test_one_shard_is_the_same_body_without_a_router(
        self, shards, monkeypatch
    ):
        """``shards == 1`` is the platform list ``[platform on mbox]``:
        no :class:`ShardRouter`, no ``shard*`` host; ``shards == 2``
        runs the same function with a router and one host per shard,
        and the entry's classes are the summary of every shard's busy
        periods in shard order, read as rows or as records."""
        from repro.bench import testbeds

        routers, hosts, platforms = [], [], []

        class RecordingRouter(ShardRouter):
            def __init__(self, *args, **kwargs):
                routers.append(self)
                super().__init__(*args, **kwargs)

            def add_shard(self, platform, port):
                platforms.append(platform)
                return super().add_shard(platform, port)

        add_host = TcpNetwork.add_host

        def recording_add_host(self, name, *args, **kwargs):
            hosts.append(name)
            return add_host(self, name, *args, **kwargs)

        monkeypatch.setattr(testbeds, "ShardRouter", RecordingRouter)
        monkeypatch.setattr(TcpNetwork, "add_host", recording_add_host)
        result = run_http_experiment(
            "flick-kernel", 16, mode="lb", cores=4,
            arrival=make_arrival("poisson", rate_rps=20_000.0),
            total_requests=1000, slo_us=5000.0, shards=shards,
        )
        assert result.entry["completed"] == 1000
        shard_hosts = [name for name in hosts if name.startswith("shard")]
        if shards == 1:
            assert routers == [] and shard_hosts == []
            assert "cluster" not in result.entry
        else:
            assert len(routers) == 1
            assert shard_hosts == ["shard0", "shard1"]
            assert result.entry["cluster"]["shards"] == 2
            assert len(platforms) == 2
            boards = [p.scoreboard for p in platforms]
            assert all(board.total_completions for board in boards)
            assert class_summary(boards) == result.entry["classes"]
        assert hosts.count("mbox") == 1
