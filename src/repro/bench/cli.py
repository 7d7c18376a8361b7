"""Command-line entry point: regenerate any figure from the paper —
plus the scenario matrix the paper's testbed could not run.

Usage::

    python -m repro.bench e1          # §6.3 web server numbers
    python -m repro.bench fig4        # HTTP LB sweep (slow)
    python -m repro.bench fig5        # Memcached proxy vs cores
    python -m repro.bench fig6        # Hadoop aggregator vs cores
    python -m repro.bench fig7        # every registered scheduling policy, three layouts
    python -m repro.bench ablations   # §4-5 ablations: timeslice, graph pool, parser, cache
    python -m repro.bench claims      # every row's claims -> docs/reproduction.md
    python -m repro.bench scenarios   # declarative matrix -> BENCH_scenarios.json
    python -m repro.bench scenarios --scenario http-overload-open
    python -m repro.bench scenarios --list            # names + axes, no run
    python -m repro.bench scenarios --quick --jobs 4  # parallel smoke run
    python -m repro.bench all --quick # everything, reduced sizes

The figures and ``claims`` (exit 1 on a failed claim) iterate one table,
:data:`repro.bench.figures.FIGURES`.

``scenarios`` crosses apps with arrival rules
(:mod:`repro.workloads.arrivals`: the closed rule, or an open-loop
poisson, bursty MMPP, ramp or replay process),
scheduling policies, topologies and service classes
(:mod:`repro.bench.scenarios`), prints a summary table, and always
writes the machine-readable, schema-versioned ``BENCH_scenarios.json``
(:mod:`repro.bench.results`), which CI ``cmp``s against the committed one.
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


def _figure(target):
    """Print every :data:`~repro.bench.figures.FIGURES` row of ``target``."""

    def view(args) -> None:
        print("\n\n".join(
            figure.text(figure.run(args.quick), args.quick)
            for figure in figures.FIGURES.values()
            if figure.target == target
        ))

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


def _scenario_output_path(args) -> str:
    """Where the scenarios document goes when ``--output`` is omitted.

    Only a full-matrix, full-size run writes the committed trajectory
    file ``BENCH_scenarios.json``; quick or filtered runs default to
    ``BENCH_scenarios.quick.json`` so a smoke run cannot silently
    clobber the repo's full-size trajectory point.
    """
    if args.output is not None:
        return args.output
    if args.quick or args.scenario != "all":
        return "BENCH_scenarios.quick.json"
    return "BENCH_scenarios.json"


def _scenarios(args) -> int:
    """Run the scenario matrix; print its table; write the JSON document."""
    selected = resolve_scenario_selection(args.scenario)
    if args.list_scenarios:
        print(format_scenario_listing(selected))
        return 0
    print(
        f"== Scenario matrix ({len(selected)} scenarios"
        f"{', quick' if args.quick else ''}) =="
    )
    results = run_scenario_matrix(selected, quick=args.quick, jobs=args.jobs)
    print(format_scenario_table(results))
    document = results_io.results_document(results, quick=args.quick)
    path = results_io.write_results(_scenario_output_path(args), document)
    print(f"\nwrote {path}")
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
        "--scenario",
        default="all",
        metavar="NAME[,NAME...]",
        help="scenarios only: which matrix entries to run ('all' or a "
        "comma-separated list of scenario names; typos get a near-miss "
        "suggestion).",
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
    args = parser.parse_args(argv)
    try:
        # Reject a --scenario typo up front, before any (expensive)
        # target runs — not only when the loop reaches ``scenarios``.
        resolve_scenario_selection(args.scenario)
        if args.jobs < 1:
            raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
    except ConfigError as exc:
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
