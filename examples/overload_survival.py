#!/usr/bin/env python
"""Overload survival: admission control + elastic core allocation.

An open-loop client population offers 160k req/s to an 8-core FLICK
load balancer that can serve ~100k — the paper's testbed could push a
middlebox to saturation, but not *past* it, so this is the regime the
simulator adds.  Two policy planes decide what happens next:

1. **Admission control** — the same overloaded workload twice, half
   gold / half bronze traffic.  Under ``admit-all`` the backlog grows
   without bound and takes the gold class's SLO down with it; under
   ``shed-bronze`` the bronze arrivals are dropped at the door the
   moment the in-flight count crosses the watermark, and gold's misses
   stay bounded no matter how long the overload lasts.

2. **Elastic core allocation** — a ramp from 10k to 250k req/s under
   the ``queue-depth`` allocator: the scheduler parks idle workers
   while the ramp is low and unparks them as the backlog builds, with
   every applied change in the scheduler's alloc log.

Accounting note: since the fault-injection plane landed, ``shed`` is
one of *four* first-class request outcomes — ``completed``, ``failed``
(dead connection), ``retried`` (impatient client gave up and
re-offered) and ``shed`` — and scenario documents (schema v4) carry
all four per entry plus a ``faults`` section on injected runs.  The
matrix's ``http-retry-storm`` / ``http-retry-storm-shed`` pair extends
this example's story to the metastable regime: retries *amplify* the
overload under ``admit-all``, and the same shed-bronze door breaks the
feedback loop (see docs/scenarios.md).

Run:  python examples/overload_survival.py
"""

from repro.bench.testbeds import run_http_experiment
from repro.runtime.admission import make_admission
from repro.workloads.arrivals import make_arrival

#: Half the offered load is premium traffic, interleaved deterministically.
CLASS_MIX = (("gold", 1.0), ("bronze", 1.0))


def overloaded_run(admission):
    """1024 requests offered at 160k req/s against ~100k of capacity."""
    return run_http_experiment(
        "flick-kernel",
        64,  # persistent connection pool
        mode="lb",
        cores=8,
        arrival=make_arrival("poisson", rate_rps=160_000.0),
        total_requests=1024,
        slo_us=2_000.0,
        admission=admission,
        class_mix=CLASS_MIX,
    )


def admission_control() -> None:
    """admit-all collapse vs shed-bronze survival, class by class."""
    runs = {
        "admit-all": overloaded_run("admit-all"),
        "shed-bronze": overloaded_run(
            make_admission("shed-bronze", max_inflight=96)
        ),
    }
    print("== 160k req/s offered, ~100k served: who misses their SLO? ==")
    for name, result in runs.items():
        p99_ms = result.entry["latency_ms"]["p99"]
        print(f"\n-- {name} (p99 {p99_ms:.2f} ms) --")
        for cls, stats in result.entry["admission"]["per_class"].items():
            print(
                f"  {cls:<6} offered={stats['offered']:<4.0f} "
                f"shed={stats['shed']:<4.0f} "
                f"slo_misses={stats['slo_misses']:.0f}"
            )
    gold_all, gold_shed = (
        runs[name].entry["admission"]["per_class"]["gold"]["slo_misses"]
        for name in ("admit-all", "shed-bronze")
    )
    print(
        f"\nshedding bronze cut gold SLO misses {gold_all:.0f} -> "
        f"{gold_shed:.0f} (and they stay bounded as the overload runs on)"
    )


def elastic_allocation() -> None:
    """The queue-depth allocator following a 25x load ramp."""
    result = run_http_experiment(
        "flick-kernel",
        64,
        mode="web",
        cores=8,
        arrival=make_arrival(
            "ramp",
            start_rps=10_000.0,
            end_rps=250_000.0,
            duration_us=30_000.0,
        ),
        total_requests=1024,
        slo_us=2_000.0,
        allocator="queue-depth",
    )
    allocator = result.entry["allocator"]
    workers = allocator["active_workers"]
    print("\n== queue-depth allocator on a 10k -> 250k req/s ramp ==")
    print(
        f"  allocation changes: {allocator['changes']}, active "
        f"workers spanned [{workers['min']}, {workers['max']}] of 8, "
        f"finished at {workers['final']}"
    )


if __name__ == "__main__":
    admission_control()
    elastic_allocation()
