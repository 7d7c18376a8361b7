"""Plain-text rendering of experiment results: tables and ASCII charts.

Used by the ``python -m repro.bench`` CLI to print figure-shaped output
(one line per plotted series) without any plotting dependency.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.sim.stats import RunResult


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]]
) -> str:
    """Render a left-aligned text table."""
    columns = [
        [str(h)] + [str(row[i]) for row in rows]
        for i, h in enumerate(headers)
    ]
    widths = [max(len(cell) for cell in col) for col in columns]
    lines = []
    header = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    lines.append(header)
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append(
            "  ".join(str(c).ljust(w) for c, w in zip(row, widths))
        )
    return "\n".join(lines)


def format_series_chart(
    series: Dict[str, List[float]],
    x_labels: Sequence[object],
    width: int = 50,
    unit: str = "",
) -> str:
    """Render one horizontal bar chart row per (series, x) point.

    Bars are scaled to the global maximum, so relative magnitudes — the
    thing the paper's figures communicate — are visible at a glance.
    """
    peak = max(
        (v for values in series.values() for v in values), default=0.0
    )
    if peak <= 0:
        return "(no data)"
    lines = []
    for name, values in series.items():
        for x, value in zip(x_labels, values):
            bar = "#" * max(1, int(round(width * value / peak)))
            lines.append(
                f"{name:>14s} x={str(x):<5s} {value:10.1f}{unit} {bar}"
            )
        lines.append("")
    return "\n".join(lines).rstrip()


def format_policy_table(results) -> str:
    """Per-policy comparison table for the Figure-7 scheduling sweep.

    ``results`` maps policy name to
    :class:`~repro.bench.scheduling.SchedulingResult` (duck-typed, so
    the report layer stays import-free of the bench harness).
    """
    rows = [
        (
            name,
            f"{r.light_mean_ms:.1f}",
            f"{r.light_max_ms:.1f}",
            f"{r.heavy_mean_ms:.1f}",
            f"{r.heavy_max_ms:.1f}",
            f"{r.makespan_ms:.1f}",
        )
        for name, r in results.items()
    ]
    return format_table(
        (
            "policy",
            "light_mean_ms",
            "light_max_ms",
            "heavy_mean_ms",
            "heavy_max_ms",
            "makespan_ms",
        ),
        rows,
    )


def format_service_class_table(results) -> str:
    """Per-policy, per-service-class SLO outcome table.

    ``results`` maps policy name to an object with a ``class_stats``
    dict (class name → completions/misses/latency aggregates, as
    produced by :func:`~repro.sim.stats.class_summary`); rows are
    emitted in the summary's class order.
    """
    rows = []
    for name, result in results.items():
        for class_name, stats in result.class_stats.items():
            completions = int(stats.get("completions", 0))
            misses = int(stats.get("misses", 0))
            miss_pct = 100.0 * misses / completions if completions else 0.0
            rows.append(
                (
                    name,
                    class_name,
                    completions,
                    misses,
                    f"{miss_pct:.0f}%",
                    int(stats.get("shed", 0)),
                    f"{stats.get('mean_ms', 0.0):.2f}",
                    f"{stats.get('p99_ms', 0.0):.2f}",
                )
            )
    if not rows:
        return "(no service-class data)"
    return format_table(
        (
            "policy",
            "class",
            "completions",
            "slo_misses",
            "miss_rate",
            "shed",
            "mean_ms",
            "p99_ms",
        ),
        rows,
    )


def format_scenario_table(results: Dict[str, dict]) -> str:
    """One row per scenario of the matrix runner's JSON-ready results.

    A job entry's ``latency_ms`` is its completion time, printed in the
    p99 column; a value an entry does not carry prints as ``-``.
    """
    rows = []
    for name, entry in results.items():
        latency = entry["latency_ms"]
        if not isinstance(latency, dict):
            latency = {"p99": latency}
        rows.append(
            (
                name,
                entry["arrival"],
                entry["policy"],
                f"{entry['throughput']:.1f} {entry['throughput_unit']}",
                *(
                    f"{latency[q]:.3f}" if q in latency else "-"
                    for q in ("p50", "p99")
                ),
                entry["slo"]["misses"] if "slo" in entry else "-",
                entry["admission"]["shed"] if "admission" in entry else "-",
                entry["steals"]["steals"],
                entry.get("cluster", {}).get("shards", 1),
            )
        )
    if not rows:
        return "(no scenarios selected)"
    return format_table(
        (
            "scenario",
            "arrival",
            "policy",
            "throughput",
            "p50_ms",
            "p99_ms",
            "slo_misses",
            "shed",
            "steals",
            "shards",
        ),
        rows,
    )


def format_scenario_listing(scenarios) -> str:
    """One row per :class:`~repro.bench.testbeds.Scenario` definition.

    The ``scenarios --list`` view: every axis a matrix entry pins,
    without running anything.
    """
    rows = []
    for scenario in scenarios:
        rows.append(
            (
                scenario.name,
                scenario.app,
                scenario.arrival or "closed-loop",
                scenario.policy,
                scenario.allocator,
                scenario.admission,
                scenario.faults or "-",
                scenario.shards,
                scenario.routing if scenario.shards > 1 else "-",
                (
                    f"@{scenario.fail_shard_at_us:g}us"
                    if scenario.fail_shard_at_us is not None
                    else "-"
                ),
                scenario.cores,
                scenario.concurrency,
                scenario.total_requests,
            )
        )
    if not rows:
        return "(no scenarios selected)"
    return format_table(
        (
            "scenario",
            "app",
            "arrival",
            "policy",
            "allocator",
            "admission",
            "faults",
            "shards",
            "routing",
            "fail",
            "cores",
            "conns",
            "requests",
        ),
        rows,
    )


def summarize(results: Dict[str, List[RunResult]]) -> str:
    """A compact table of throughput and latency per system/x."""
    rows = []
    for system, points in results.items():
        for point in points:
            rows.append(
                (
                    system,
                    f"{point.x:g}",
                    f"{point.throughput:.1f}",
                    f"{point.latency_ms:.3f}",
                )
            )
    return format_table(
        ("system", "x", "throughput", "latency_ms"), rows
    )
