"""Ablations E11-E13: design choices the paper's sections 4-5 call out
(docs/architecture.md describes the runtime they exercise).

* E11 — cooperative timeslice sweep (section 5 gives 10-100 µs as the
  operating range): fairness for light tasks degrades as the quantum
  grows.
* E12 — graph-pool pre-allocation (section 5: "the platform maintains a
  pre-allocated pool of task graphs to avoid the overhead of
  construction"): disabling the pool costs non-persistent throughput.
* E13 — parser specialisation (section 4.2): decoding only accessed
  fields beats the full-grammar parser on proxy throughput.
"""


from benchmarks.conftest import print_series, run_once
from repro.bench.figures import FIG7
from repro.bench.scheduling import run_scheduling_experiment
from repro.bench.testbeds import run_http_experiment, run_memcached_experiment


def test_e11_timeslice_sweep(benchmark):
    """The quantum has a sweet spot (the paper's 10-100 µs range, upper
    half here): a quantum *below one heavy item* (65 µs of work that
    cannot be split) degenerates towards round-robin — every task gets
    one item per turn regardless of the budget — while a quantum larger
    than a whole task degenerates to run-to-completion.  Both ends hurt
    light tasks; in between the policy is insensitive to the value."""
    def sweep():
        return {
            ts: run_scheduling_experiment(
                "cooperative", timeslice_us=ts, **FIG7.size
            )
            for ts in (10.0, 50.0, 100.0, 100_000.0)
        }

    results = run_once(benchmark, sweep)
    print_series(
        "E11 timeslice sweep",
        [
            f"timeslice={ts:7.0f}us light={r.light_mean_ms:6.1f}ms "
            f"heavy={r.heavy_mean_ms:6.1f}ms"
            for ts, r in results.items()
        ],
    )
    sweet = [results[ts].light_mean_ms for ts in (50.0, 100.0)]
    # Flat across the sweet spot (<15% spread).
    assert max(sweet) < 1.15 * min(sweet)
    # Sub-item quantum degenerates towards round-robin fairness loss.
    assert results[10.0].light_mean_ms > 1.4 * max(sweet)
    # A quantum exceeding a whole task degenerates to run-to-completion.
    assert results[100_000.0].light_mean_ms > 1.4 * max(sweet)


def test_e12_graph_pool(benchmark):
    def sweep():
        pooled = run_http_experiment(
            "flick-kernel", 200, persistent=False, mode="web", cores=16,
            requests_per_client=6, graph_pool_size=512,
        )
        unpooled = run_http_experiment(
            "flick-kernel", 200, persistent=False, mode="web", cores=16,
            requests_per_client=6, graph_pool_size=0,
        )
        return pooled, unpooled

    pooled, unpooled = run_once(benchmark, sweep)
    print_series(
        "E12 graph pool (non-persistent web)",
        [
            f"pool=512: {pooled.throughput:6.1f}k req/s",
            f"pool=0:   {unpooled.throughput:6.1f}k req/s",
        ],
    )
    assert pooled.throughput > unpooled.throughput


def test_e13_parser_specialisation(benchmark):
    """Measured on the cache-router variant: its response path runs the
    generated parser (the plain proxy raw-forwards responses, so parsing
    cost never appears there).  4 KiB values make the skipped payload
    decoding visible."""
    def sweep():
        spec = run_memcached_experiment(
            "flick-kernel", 8, concurrency=64, requests_per_client=30,
            specialised_parser=True, cache_router=True, value_bytes=4096,
        )
        full = run_memcached_experiment(
            "flick-kernel", 8, concurrency=64, requests_per_client=30,
            specialised_parser=False, cache_router=True, value_bytes=4096,
        )
        return spec, full

    spec, full = run_once(benchmark, sweep)
    print_series(
        "E13 parser specialisation (memcached proxy, 8 cores)",
        [
            f"specialised: {spec.throughput:6.1f}k req/s",
            f"full parse:  {full.throughput:6.1f}k req/s",
        ],
    )
    assert spec.throughput > full.throughput
    assert spec.entry["errors"] == 0 and full.entry["errors"] == 0


def test_cache_router_offload(benchmark):
    """Bonus ablation: the Listing-1 cache cuts backend traffic by an
    order of magnitude on a skewed key space."""
    def sweep():
        plain = run_memcached_experiment(
            "flick-kernel", 8, concurrency=64, requests_per_client=30,
            cache_router=False, key_space=64,
        )
        cached = run_memcached_experiment(
            "flick-kernel", 8, concurrency=64, requests_per_client=30,
            cache_router=True, key_space=64,
        )
        return plain, cached

    plain, cached = run_once(benchmark, sweep)
    print_series(
        "cache router backend offload",
        [
            f"plain proxy:  {plain.backend_requests:7d} backend reqs",
            f"cache router: {cached.backend_requests:7d} backend reqs",
        ],
    )
    assert cached.backend_requests < plain.backend_requests / 5
