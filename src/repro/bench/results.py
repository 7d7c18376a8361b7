"""Machine-readable benchmark output: the schema-versioned JSON document.

Every scenario run (``python -m repro.bench scenarios``) is serialised
to a ``BENCH_scenarios.json`` document so the perf trajectory of the
repo is a diffable artifact instead of a printed table.  The document is
deliberately free of wall-clock timestamps: the simulator is
deterministic, so two runs of the same code produce byte-identical
documents, and CI ``cmp``s a fresh run against the committed ones
(``BENCH_scenarios.json`` and ``benchmarks/baseline_scenarios.json``).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict

#: Bump when the document layout changes shape (not when scenarios are
#: added/removed).  v2 added the
#: per-scenario "allocator" section and (on open-loop entries) the
#: "admission" section with per-class shed counts.  v3 added the
#: top-level "failed" count (requests lost to dead connections), a
#: per-class "failed" in the admission section, and (on sharded
#: entries) the "cluster" section with routing/failover counters.
#: v4 added the top-level "retried" count (impatient-client
#: re-submissions), a per-class "retried" in the admission and classes
#: sections, and (on fault-injected entries) the "faults" section with
#: the injector's name, parameters and counters.  v5 gave a job entry
#: (hadoop) only what a job measures: a scalar ``latency_ms`` (its
#: completion time) and a ``job`` section of
#: ingress and egress bytes, with no request counts and no ``slo``.
#: v6 gave every request entry the "admission" section (one client
#: population, whatever its arrival rule) and dropped the fault
#: counters that echoed a parameter or a top-level count
#: (``flap_cycles``, retry-storm's ``retried``).
SCHEMA_VERSION = 6


def results_document(scenarios: Dict[str, dict], quick: bool) -> dict:
    """Wrap per-scenario result dicts in the versioned envelope."""
    return {
        "schema_version": SCHEMA_VERSION,
        "benchmark": "scenarios",
        "quick": bool(quick),
        "scenarios": scenarios,
    }


def write_results(path, document: dict) -> Path:
    """Write ``document`` (sorted keys, trailing newline)."""
    path = Path(path)
    path.write_text(
        json.dumps(document, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return path
