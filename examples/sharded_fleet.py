#!/usr/bin/env python
"""Cluster tier: a consistent-hash shard router over N FLICK platforms.

One ``FlickPlatform`` is one middlebox; production scale means a
fleet.  ``ShardRouter`` is an L4 byte-pipe proxy on its own simulated
host: it terminates client TCP, picks a shard per connection on a
seeded consistent-hash ring (so placement is stable across runs and
processes), and splices bytes both ways.  Two demonstrations:

1. **The scaling curve** — the same open-loop offered load against 1,
   2 and 4 shards.  Completion throughput must roughly double per
   shard doubling (CI pins >= 1.7x); the ``least-loaded``
   power-of-two-choices policy keeps the per-shard split tight where
   pure hash affinity would wear a binomial imbalance.

2. **Failover** — a 2-shard fleet loses a shard mid-run.  The ring
   remaps the dead shard's segment to the survivor, severed
   connections drain their in-flight requests as ``failed`` (a
   first-class outcome next to completions, sheds and the fault
   plane's retries — all four are pinned per entry in the schema-v4
   scenario documents), and the clients reconnect — bounded loss, not
   collapse.

Run:  python examples/sharded_fleet.py
"""

from repro.bench.testbeds import run_http_experiment
from repro.workloads.arrivals import make_arrival

#: Offered load shared by every point on the curve: what saturates one
#: shard should be comfortably absorbed by four.
RATE_RPS = 800_000.0
REQUESTS = 4096
CONNECTIONS = 128


def scaling_point(shards):
    """Fixed offered load, variable fleet size."""
    result = run_http_experiment(
        "flick-kernel",
        CONNECTIONS,
        mode="web",  # static-web mode: the shard itself is the bottleneck
        cores=4,
        arrival=make_arrival("poisson", rate_rps=RATE_RPS),
        total_requests=REQUESTS,
        shards=shards,
        routing="least-loaded" if shards > 1 else "hash-affinity",
    )
    return result.throughput, result.entry.get("cluster")


def main() -> None:
    print(f"== Scaling curve: {RATE_RPS / 1000:.0f}k req/s offered ==")
    previous = None
    for shards in (1, 2, 4):
        throughput, cluster = scaling_point(shards)
        speedup = (
            f"  ({throughput / previous:.2f}x over previous)"
            if previous
            else ""
        )
        print(f"  {shards} shard(s): {throughput:8.1f} kreq/s{speedup}")
        if cluster:
            per_shard = cluster["per_shard"]
            routed = {
                name: int(report["routed_connections"])
                for name, report in per_shard.items()
            }
            print(f"      connections per shard: {routed}")
        previous = throughput

    print("\n== Failover: shard 1 of 2 dies at t=10ms ==")
    result = run_http_experiment(
        "flick-kernel",
        64,
        mode="lb",
        cores=4,
        arrival=make_arrival("poisson", rate_rps=60_000.0),
        total_requests=REQUESTS,
        slo_us=5_000.0,
        shards=2,
        fail_shard_at_us=10_000.0,
    )
    cluster = result.entry["cluster"]
    failed = result.entry["failed"]
    completed = result.entry["completed"]
    print(
        f"  alive shards: {cluster['alive_shards']}/{cluster['shards']}"
        f"  (failed: {cluster['failed_shards']})"
    )
    print(
        f"  connections failed over: {cluster['failed_over_connections']}"
    )
    print(
        f"  requests: {completed} completed, {failed} failed "
        f"({failed / (completed + failed):.2%} of admitted)"
    )
    print(f"  survivor throughput: {result.throughput:.1f} kreq/s")


if __name__ == "__main__":
    main()
