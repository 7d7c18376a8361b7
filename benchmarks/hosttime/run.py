#!/usr/bin/env python3
"""Host-time benchmark: four workloads, calibrated seconds, per-layer view.

    python3 benchmarks/hosttime/run.py                  the whole ledger
    python3 benchmarks/hosttime/run.py --repeat-check   do two sets agree?
    python3 benchmarks/hosttime/run.py --workload NAME --seed N \\
            --seconds S --trace 0|1                     one BENCHMARK.json run

Every measurement is a fresh interpreter (``child.py``) that does one
testbed call; this process only starts them, one at a time, and does
the arithmetic.  See ``README.md`` for what each number means.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"

DEFAULT_SEED = 0xF11C
PROBE_REPEATS = 7
WORKLOADS = ("memcached-steady", "http-overload", "http-churn", "hadoop-agg")

#: name, unit, better, bound — mirrored by BENCHMARK.json (the smoke test
#: compares the two).
END_TO_END = (
    ("host_ops_per_s", "ops/s", "higher", 0.15),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.05),
    ("sim_throughput", "kreq/s_Mb/s", "higher", 0.10),
    ("sim_latency_ms", "sim_ms", "lower", 0.25),
    ("completed_share", "fraction", "higher", 0.001),
)

LAYERS = ("sim", "net", "grammar", "lang", "runtime", "core", "workloads", "other")

PER_LAYER_UNITS = {
    **{f"trace.{layer}.self_share": "fraction" for layer in LAYERS},
    **{f"trace.{layer}.calls_per_op": "calls/op" for layer in LAYERS},
    "trace.total.calls_per_op": "calls/op",
    "trace.overhead_x": "x",
    "grammar.memcached_parse_us": "us",
    "grammar.memcached_serialize_us": "us",
    "grammar.memcached_chunked_parse_us": "us",
    "grammar.codec_build_ms": "ms",
    "grammar.http_parse_us": "us",
    "grammar.http_serialize_us": "us",
    "grammar.hadoop_parse_us": "us",
    "lang.compile_ms": "ms",
    "lang.handler_us": "us",
    "lang.foldt_us": "us",
    "sim.engine_events_per_s": "1/s",
    "sim.engine_sametick_events_per_s": "1/s",
    "sim.stats_record_ns": "ns",
    "net.tcp_msg_us": "us",
    "net.tcp_connect_us": "us",
    "runtime.conn_setup_us": "us",
    "runtime.conn_rss_kb": "KiB",
    "runtime.channel_us": "us",
    "core.stable_hash_ns": "ns",
    "workloads.arrival_gap_ns": "ns",
    "workloads.mapper_gen_ms": "ms",
    "cluster.ring_lookup_us": "us",
    "bench.calib_s": "s",
    "bench.raw_cpu_s": "s",
    "bench.wall_over_cpu": "x",
    "bench.reps": "count",
}

#: The simulated numbers that must be identical in every repetition.
_REQUEST_LAWS = (
    ("admitted + shed == offered", lambda s: s["admitted"] + s["shed"] == s["offered"]),
    (
        "completed + failed + retried == admitted",
        lambda s: s["completed"] + s["failed"] + s["retried"] == s["admitted"],
    ),
    ("errors == 0", lambda s: s["errors"] == 0),
)


class HarnessError(Exception):
    """A child could not do its job at all: no result is printed."""


def spawn(mode: str, workload: str, seed: int, scale: float, *extra) -> dict:
    """Run one child to completion and return the object it printed."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    argv = [sys.executable, str(HERE / "child.py"), mode, workload, str(seed),
            repr(scale), *map(str, extra)]
    done = subprocess.run(argv, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        tail = "\n".join(done.stderr.strip().splitlines()[-6:])
        raise HarnessError(f"child {mode} {workload} exited {done.returncode}:\n{tail}")
    return json.loads(done.stdout.strip().splitlines()[-1])


# -- the end-to-end part --------------------------------------------------------


def measure(workloads, seed, scale, min_reps, seconds=0.0, warm_up=True) -> dict:
    """Round-robin repetitions: at least ``min_reps`` of each workload,
    then more while a whole round still fits before ``seconds``.  One
    small untimed child per workload goes first (it fills ``__pycache__``
    and the page cache)."""
    started = time.monotonic()
    if warm_up:
        for workload in workloads:
            spawn("run", workload, seed, scale / 8)
    reps = {w: [] for w in workloads}
    round_cost = 0.0
    while True:
        done = len(reps[workloads[0]])
        elapsed = time.monotonic() - started
        if done >= min_reps and elapsed + round_cost > seconds:
            return reps
        for workload in workloads:
            reps[workload].append(spawn("run", workload, seed, scale))
        round_cost = time.monotonic() - started - elapsed


def check_repetitions(workload: str, reps) -> dict:
    """Repetition index -> every way that repetition is wrong."""
    wrong = {}
    first = None
    for i, rep in enumerate(reps):
        sim = rep["sim"]
        found = []
        if "unfinished" in sim:
            found.append(f"did not finish: {sim['unfinished']}")
        elif "egress_bytes" in sim:
            if sim["egress_bytes"] <= 0:
                found.append("egress_bytes == 0")
        else:
            found.extend(
                f"{law} is broken: {sim}"
                for law, holds in _REQUEST_LAWS if not holds(sim)
            )
        if not found:
            if first is None:
                first = sim
            elif sim != first:
                found.append("simulated results differ from an earlier repetition")
        if found:
            wrong[i] = [f"{workload} repetition {i}: {text}" for text in found]
    return wrong


def _lower_quartile(values):
    return statistics.quantiles(values, n=4)[0] if len(values) > 1 else values[0]


def end_to_end(workload: str, reps):
    """``(metrics, problems, attempted, failed)`` for one workload."""
    wrong = check_repetitions(workload, reps)
    problems = [line for lines in wrong.values() for line in lines]
    finished = [rep for rep in reps if "unfinished" not in rep["sim"]]
    if not finished:
        raise HarnessError("\n".join(problems))
    sim = finished[0]["sim"]
    # A wrong repetition counts all its ops as failed; its host time is
    # still a measurement.
    offered = sim["offered_ops"] * len(reps)
    completed = sum(rep["sim"]["ops"] for i, rep in enumerate(reps) if i not in wrong)
    call_s = _lower_quartile([rep["call_s"] for rep in finished])
    values = {
        "host_ops_per_s": sim["ops"] / call_s,
        "setup_s": statistics.median(rep["setup_s"] for rep in finished),
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in finished),
        "sim_throughput": sim["sim_throughput"],
        "sim_latency_ms": sim["sim_latency_ms"],
        "completed_share": completed / offered,
    }
    metrics = {
        name: {"value": values[name], "unit": unit} for name, unit, _, _ in END_TO_END
    }
    return metrics, problems, round(offered), round(offered - completed)


def bench_metrics(reps) -> dict:
    """How disturbed the machine was; never a claim."""
    quanta = [rep["calib_s"] for rep in reps if rep["calib_s"] is not None]
    return {
        "bench.calib_s": statistics.median(quanta) if quanta else None,
        "bench.raw_cpu_s": statistics.median(rep["raw_cpu_s"] for rep in reps),
        "bench.wall_over_cpu": statistics.median(rep["wall_over_cpu"] for rep in reps),
        "bench.reps": len(reps),
    }


# -- the per-layer part ----------------------------------------------------------


def per_layer(workload, seed, scale, reps, probes):
    """One traced child plus the probe readings, as per-layer metrics.

    ``reps`` are untraced repetitions of the same size (for
    ``trace.overhead_x`` and the ``bench.*`` rows).
    """
    traced = spawn("trace", workload, seed, scale)
    problems = []
    if traced["sim"] != reps[0]["sim"]:
        problems.append(f"{workload}: tracing changed the simulated results")
    ops = traced["sim"].get("ops") or 1
    total_s = sum(traced["self_s"].values())
    values = {}
    for layer in LAYERS:
        values[f"trace.{layer}.self_share"] = traced["self_s"][layer] / total_s
        values[f"trace.{layer}.calls_per_op"] = traced["calls"][layer] / ops
    values["trace.total.calls_per_op"] = sum(traced["calls"].values()) / ops
    values.update(bench_metrics(reps))
    values["trace.overhead_x"] = traced["raw_cpu_s"] / values["bench.raw_cpu_s"]
    metrics = {name: {"value": value} for name, value in values.items()}
    # A probe that failed keeps its one-line reason beside the null.
    metrics.update(probes["common"])
    metrics["lang.compile_ms"] = probes["compile_ms"][workload]
    return {
        name: dict(metrics[name], unit=unit) for name, unit in PER_LAYER_UNITS.items()
    }, problems


# -- printing ---------------------------------------------------------------------


def print_metrics(workload: str, metrics: dict) -> None:
    for name, metric in metrics.items():
        value = metric["value"]
        shown = "null" if value is None else f"{value:.6g}"
        note = f"  # {metric['reason']}" if "reason" in metric else ""
        print(f"{workload:<18} {name:<36} {shown:>12} {metric['unit']}{note}")


def relative_difference(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b)) if a != b else 0.0


# -- commands ---------------------------------------------------------------------


def run_contract(args) -> int:
    """One BENCHMARK.json run: one workload, end to end or per layer."""
    workload = args.workload
    if args.trace:
        reps = [spawn("run", workload, args.seed, args.scale)]
        probes = spawn("probes", "-", args.seed, args.scale, PROBE_REPEATS)
        _, problems, attempted, failed = end_to_end(workload, reps)
        metrics, more = per_layer(workload, args.seed, args.scale, reps, probes)
        problems += more
    else:
        reps = measure([workload], args.seed, args.scale, 3, args.seconds)
        metrics, problems, attempted, failed = end_to_end(workload, reps[workload])
    print_metrics(workload, metrics)
    for line in problems:
        print(f"FAILED {line}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 1 if problems else 0


def run_ledger(args) -> int:
    """All four workloads, both parts; optionally written to a file."""
    started = time.monotonic()
    scale = args.scale / 8 if args.smoke else args.scale
    reps = measure(
        WORKLOADS, args.seed, scale, 1 if args.smoke else 12, warm_up=not args.smoke
    )
    probes = spawn(
        "probes", "-", args.seed, scale, 1 if args.smoke else PROBE_REPEATS
    )
    ledger = {
        "schema": 1,
        "seed": args.seed,
        "scale": scale,
        "workloads": {},
    }
    problems = []
    for workload in WORKLOADS:
        metrics, bad, _, _ = end_to_end(workload, reps[workload])
        layer_metrics, more = per_layer(
            workload, args.seed, scale, reps[workload], probes
        )
        problems += bad + more
        print_metrics(workload, metrics)
        print_metrics(workload, layer_metrics)
        ledger["workloads"][workload] = {
            "latency_samples": reps[workload][0]["sim"].get("latency_samples"),
            "end_to_end": metrics,
            "per_layer": layer_metrics,
        }
    for line in problems:
        print(f"FAILED {line}")
    print(f"# {time.monotonic() - started:.0f} s")
    if args.output:
        Path(args.output).write_text(json.dumps(ledger, indent=1) + "\n")
    return 1 if problems else 0


def run_repeat_check(args) -> int:
    """Two interleaved sets of repetitions of the same code: every
    end-to-end metric must agree within half its bound."""
    started = time.monotonic()
    reps = measure(WORKLOADS, args.seed, args.scale, 24)
    worst = 0
    for workload in WORKLOADS:
        sets = [end_to_end(workload, reps[workload][k::2])[0] for k in (0, 1)]
        for name, unit, _, bound in END_TO_END:
            a, b = (s[name]["value"] for s in sets)
            diff = relative_difference(a, b)
            verdict = "ok" if diff <= bound / 2 else "DISAGREE"
            worst += verdict != "ok"
            print(f"{workload:<18} {name:<18} {a:>12.6g} {b:>12.6g} {unit:<9}"
                  f" diff {diff:7.2%}  bound {bound:.1%}  {verdict}")
        raw = [
            _lower_quartile([rep["raw_cpu_s"] for rep in reps[workload][k::2]])
            for k in (0, 1)
        ]
        print(f"{workload:<18} {'(raw cpu_s, uncalibrated)':<18} {raw[0]:>12.6g}"
              f" {raw[1]:>12.6g} {'s':<9} diff {relative_difference(*raw):7.2%}")
    print(f"# {time.monotonic() - started:.0f} s")
    return 1 if worst else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiplies every workload size (128 for >=1M requests)")
    parser.add_argument("--output", help="write the ledger to this file")
    parser.add_argument("--smoke", action="store_true",
                        help="1 repetition, 1/8 size, probes at one repeat")
    parser.add_argument("--repeat-check", action="store_true")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.workload:
            return run_contract(args)
        if args.repeat_check:
            return run_repeat_check(args)
        return run_ledger(args)
    except HarnessError as exc:
        print(f"hosttime: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
