"""Command-line entry point: regenerate any figure from the paper —
plus the scenario matrix the paper's testbed could not run.

Usage::

    python -m repro.bench e1          # §6.3 web server numbers
    python -m repro.bench fig4        # HTTP LB sweep (slow)
    python -m repro.bench fig5        # Memcached proxy vs cores
    python -m repro.bench fig6        # Hadoop aggregator vs cores
    python -m repro.bench fig7        # every registered scheduling policy
    python -m repro.bench ablations   # §4-5 ablations: timeslice, graph pool, parser, cache
    python -m repro.bench claims      # every row's claims -> docs/reproduction.md
    python -m repro.bench fig7 --policy paper  # the paper's three policies only
    python -m repro.bench fig7 --policy all --topology four-socket
    python -m repro.bench fig7 --policy deadline \\
        --slo-class light=gold:1000@4 --slo-class heavy=bronze:50000
    python -m repro.bench scenarios   # declarative matrix -> BENCH_scenarios.json
    python -m repro.bench scenarios --scenario http-overload-open
    python -m repro.bench scenarios --scenario http-overload-shed \\
        --admission shed-bronze --allocator queue-depth
    python -m repro.bench scenarios --list            # names + axes, no run
    python -m repro.bench scenarios --quick --jobs 4  # parallel smoke run
    python -m repro.bench scenarios --scenario http-open-poisson \\
        --shards 4 --routing least-loaded   # cluster-tier override
    python -m repro.bench scenarios --scenario http-open-poisson \\
        --faults retry-storm   # fault-injection override
    python -m repro.bench scenarios --quick \\
        --baseline benchmarks/baseline_scenarios.json   # CI perf gate
    python -m repro.bench all --quick # everything, reduced sizes

The figures and ``claims`` (exit 1 on a failed claim) iterate one table,
:data:`repro.bench.figures.FIGURES`.

``scenarios`` crosses apps with arrival rules
(:mod:`repro.workloads.arrivals`: the closed rule, or an open-loop
poisson, bursty MMPP, ramp or replay process),
scheduling policies, topologies and service classes
(:mod:`repro.bench.scenarios`), prints a summary table, and always
writes the machine-readable, schema-versioned ``BENCH_scenarios.json``
(:mod:`repro.bench.results`).  With ``--baseline``, the run is compared
against a committed document and exits 1 on a >10% throughput drop or a
>15% p99 latency rise — the CI perf-regression gate.
"""

from __future__ import annotations

import argparse
import sys
from typing import List

from repro.core.errors import ConfigError, RuntimeFlickError
from repro.bench import figures
from repro.bench import results as results_io
from repro.bench.report import format_scenario_listing, format_scenario_table
from repro.bench.scenarios import (
    resolve_scenario_selection,
    run_scenario_matrix,
)
from repro.bench.scheduling import ENDPOINTS, resolve_policy_selection
from repro.bench.testbeds import AXES
from repro.net.stackprofiles import TOPOLOGIES
from repro.runtime.qos import parse_slo_class_specs


def _figure(target):
    """Print every :data:`~repro.bench.figures.FIGURES` row of
    ``target``; ``--policy`` / ``--topology`` / ``--slo-class`` reshape
    the fig7 row."""

    def view(args) -> None:
        texts = []
        for figure in figures.FIGURES.values():
            if figure.target == target:
                policies, sweep = None, {}
                if target == "fig7":
                    policies = args.policy and resolve_policy_selection(args.policy)
                    sweep = {"topology": args.topology, "service_classes": _service_classes(args)}
                points = figure.run(args.quick, policies, **sweep)
                texts.append(figure.text(points, args.quick, **sweep))
        print("\n\n".join(texts))

    return view


def _claims(args) -> int:
    """Evaluate every figure's claims; exit 1 naming each that fails."""
    rows = list(figures.claim_rows(figures.FIGURES, args.quick))
    print(figures.claims_document(rows, figures.FIGURES, args.quick))
    failed = [row for row in rows if not row[1].holds(row[2])]
    for name, claim, ours in failed:
        message = f"FAILED CLAIM {name}: {claim.name}: ours {ours:g}, needs {claim.bound()}"
        print(message, file=sys.stderr)
    return 1 if failed else 0


def _service_classes(args):
    """The fig7 service-class map from repeated ``--slo-class`` flags."""
    if not getattr(args, "slo_class", None):
        return None
    return parse_slo_class_specs(args.slo_class, valid_endpoints=ENDPOINTS)


#: ``scenarios`` flags that override the same-named field on every
#: selected scenario.
_OVERRIDE_FLAGS = ("allocator", "admission", "shards", "routing", "faults")


def _scenario_overrides(args) -> dict:
    """Pinned-field overrides from the :data:`_OVERRIDE_FLAGS` flags."""
    overrides = {
        flag: getattr(args, flag)
        for flag in _OVERRIDE_FLAGS
        if getattr(args, flag, None) is not None
    }
    if "faults" in overrides:
        # Replacing the injector invalidates any scenario-pinned
        # parameters (they belong to the original fault's signature).
        overrides["fault_params"] = ()
    return overrides


def _scenario_output_path(args) -> str:
    """Where the scenarios document goes when ``--output`` is omitted.

    Only a full-matrix, full-size, unmodified run writes the committed
    trajectory file ``BENCH_scenarios.json``; quick, filtered, or
    overridden (``--allocator``/``--admission``) runs default to
    ``BENCH_scenarios.quick.json`` so the documented CI-gate command
    cannot silently clobber the repo's full-size trajectory point.
    """
    if args.output is not None:
        return args.output
    if args.quick or args.scenario != "all" or _scenario_overrides(args):
        return "BENCH_scenarios.quick.json"
    return "BENCH_scenarios.json"


def _scenarios(args) -> int:
    """Run the scenario matrix; write JSON; optionally gate on a baseline."""
    selected = resolve_scenario_selection(args.scenario)
    overrides = _scenario_overrides(args)
    if overrides:
        selected = tuple(
            scenario._replace(**overrides) for scenario in selected
        )
    if args.list_scenarios:
        print(format_scenario_listing(selected))
        return 0
    suffix = "".join(
        f", {field}={value}" for field, value in sorted(overrides.items())
    )
    print(
        f"== Scenario matrix ({len(selected)} scenarios"
        f"{', quick' if args.quick else ''}{suffix}) =="
    )
    results = run_scenario_matrix(selected, quick=args.quick, jobs=args.jobs)
    print(format_scenario_table(results))
    document = results_io.results_document(results, quick=args.quick)
    path = results_io.write_results(_scenario_output_path(args), document)
    print(f"\nwrote {path}")
    if args.baseline is None:
        return 0
    baseline = results_io.load_results(args.baseline)
    if bool(baseline.get("quick")) != bool(args.quick):
        raise ConfigError(
            f"baseline {args.baseline} was generated with "
            f"quick={baseline.get('quick')}, this run with "
            f"quick={args.quick}; perf comparisons must be like-for-like"
        )
    regressions = results_io.compare_to_baseline(
        document,
        baseline,
        # A filtered run deliberately omits the rest of the matrix; only
        # a full run vouches for coverage.
        restrict_to=(
            None
            if args.scenario == "all"
            else [scenario.name for scenario in selected]
        ),
    )
    if regressions:
        print(
            f"\nPERF REGRESSION against {args.baseline}:", file=sys.stderr
        )
        for regression in regressions:
            print(f"  - {regression}", file=sys.stderr)
        return 1
    print(f"no perf regressions against {args.baseline}")
    return 0


_TARGETS = {
    **{figure.target: _figure(figure.target) for figure in figures.FIGURES.values()},
    "claims": _claims,
    "scenarios": _scenarios,
}


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's evaluation figures.",
    )
    parser.add_argument(
        "target",
        choices=sorted(_TARGETS) + ["all"],
        help="which figure/table to regenerate",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="reduced workload sizes for a fast smoke run",
    )
    parser.add_argument(
        "--policy",
        default=None,
        metavar="NAME[,NAME...]",
        help="fig7 only: which scheduling policies to sweep. By default "
        "and with 'all', every registered policy (the fig7 row's series); "
        "'paper' runs the three Figure-7 policies, or give a "
        "comma-separated list of names. "
        f"Registered: {', '.join(AXES['policy'].names())}.",
    )
    parser.add_argument(
        "--topology",
        default=None,
        choices=sorted(TOPOLOGIES),
        help="fig7 only: socket layout of the simulated cores. Prices "
        "cross-socket steals per interconnect hop and feeds the 'numa' "
        "policy's hierarchical placement/stealing; default is a flat "
        "(penalty-free) layout.",
    )
    parser.add_argument(
        "--slo-class",
        action="append",
        default=None,
        metavar="EP=[NAME:]US[@W]",
        help="fig7 only, repeatable: bind a workload endpoint ('light' "
        "or 'heavy') to a QoS tier — e.g. --slo-class light=gold:1000@4 "
        "--slo-class heavy=bronze:50000. Classified tasks carry the "
        "class SLO/weight and the sweep reports per-class SLO misses.",
    )
    parser.add_argument(
        "--scenario",
        default="all",
        metavar="NAME[,NAME...]",
        help="scenarios only: which matrix entries to run ('all' or a "
        "comma-separated list of scenario names; typos get a near-miss "
        "suggestion).",
    )
    parser.add_argument(
        "--allocator",
        default=None,
        metavar="NAME",
        help="scenarios only: override the core-allocation policy on "
        "every selected scenario (typos get a near-miss suggestion). "
        f"Registered: {', '.join(AXES['allocator'].names())}.",
    )
    parser.add_argument(
        "--admission",
        default=None,
        metavar="NAME",
        help="scenarios only: override the admission-control policy on "
        "every selected scenario; only request/response scenarios "
        "accept one (typos get a near-miss suggestion). "
        f"Registered: {', '.join(AXES['admission'].names())}.",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="scenarios only: run the selected scenarios in N worker "
        "processes. Output is byte-identical to --jobs 1 (a run is a "
        "pure function of its spec); only wall-clock time changes.",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="N",
        help="scenarios only: override the cluster-tier shard count on "
        "every selected scenario. N > 1 puts N FLICK platforms behind "
        "one consistent-hash shard router (http_lb scenarios only); "
        "combine with --scenario to target specific entries.",
    )
    parser.add_argument(
        "--routing",
        default=None,
        metavar="NAME",
        help="scenarios only: override the cross-shard routing policy "
        "on every selected scenario; needs --shards > 1 (typos get a "
        "near-miss suggestion). "
        f"Registered: {', '.join(AXES['routing'].names())}.",
    )
    parser.add_argument(
        "--faults",
        default=None,
        metavar="NAME",
        help="scenarios only: override the fault injector on every "
        "selected scenario (with the injector's default parameters); "
        "only single-platform request/response scenarios accept one "
        "(typos get a near-miss suggestion). "
        f"Registered: {', '.join(AXES['faults'].names())}.",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        dest="list_scenarios",
        help="scenarios only: print the selected scenario names and "
        "their axes (app, arrival, policy, shards, routing, ...) "
        "without running anything, then exit 0.",
    )
    parser.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help="scenarios only: where the machine-readable JSON document "
        "is written. Default: BENCH_scenarios.json for a full-matrix "
        "full-size run, BENCH_scenarios.quick.json for --quick or "
        "--scenario-filtered runs (so the committed trajectory file is "
        "never clobbered by a smoke run).",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        metavar="PATH",
        help="scenarios only: compare the run against a committed "
        "results document and exit 1 on a perf regression (>"
        f"{results_io.MAX_THROUGHPUT_DROP_PCT:g}%% throughput drop or >"
        f"{results_io.MAX_P99_RISE_PCT:g}%% p99 rise).",
    )
    args = parser.parse_args(argv)
    try:
        # Reject --policy / --slo-class / --scenario / --allocator /
        # --admission typos up front, before any (expensive) target
        # runs — not only when the loop eventually reaches the target
        # that consumes the flag.
        if args.policy is not None:
            resolve_policy_selection(args.policy)
        _service_classes(args)
        resolve_scenario_selection(args.scenario)
        for flag, value in _scenario_overrides(args).items():
            if flag in AXES:
                AXES[flag].check(value)
        if args.jobs < 1:
            raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
        if args.shards is not None and args.shards < 1:
            raise ConfigError(f"--shards must be >= 1, got {args.shards}")
    except (RuntimeFlickError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    targets = sorted(_TARGETS) if args.target == "all" else [args.target]
    exit_code = 0
    for name in targets:
        try:
            code = _TARGETS[name](args)
        except (RuntimeFlickError, ConfigError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        exit_code = exit_code or (code or 0)
        print()
    return exit_code


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
