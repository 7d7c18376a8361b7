"""Machine-readable benchmark output: schema-versioned JSON + regression gate.

Every scenario run (``python -m repro.bench scenarios``) is serialised
to a ``BENCH_scenarios.json`` document so the perf trajectory of the
repo is a diffable artifact instead of a printed table.  The document is
deliberately free of wall-clock timestamps: the simulator is
deterministic, so two runs of the same code produce byte-identical
documents and a committed baseline (``benchmarks/baseline_scenarios.json``)
can gate regressions exactly.

:func:`compare_to_baseline` is the CI gate: a scenario regresses when
its throughput drops by more than ``max_throughput_drop_pct`` or its p99
latency rises by more than ``max_p99_rise_pct`` against the baseline.
Scenarios new in the current run pass (the baseline is refreshed in the
same PR); scenarios that *disappeared* fail, so coverage cannot silently
shrink.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.core.errors import ConfigError

#: Bump when the document layout changes shape (not when scenarios are
#: added/removed — the comparison handles that).  v2 added the
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
#: completion time, which the p99 gate reads) and a ``job`` section of
#: ingress and egress bytes, with no request counts and no ``slo``.
#: v6 gave every request entry the "admission" section (one client
#: population, whatever its arrival rule) and dropped the fault
#: counters that echoed a parameter or a top-level count
#: (``flap_cycles``, retry-storm's ``retried``).
SCHEMA_VERSION = 6

#: CI gate defaults (ISSUE: fail if throughput drops >10% or p99 rises >15%).
MAX_THROUGHPUT_DROP_PCT = 10.0
MAX_P99_RISE_PCT = 15.0


def results_document(scenarios: Dict[str, dict], quick: bool) -> dict:
    """Wrap per-scenario result dicts in the versioned envelope."""
    return {
        "schema_version": SCHEMA_VERSION,
        "benchmark": "scenarios",
        "quick": bool(quick),
        "scenarios": scenarios,
    }


def validate_document(document: dict, source: str = "document") -> dict:
    """Check the envelope; raise :class:`ConfigError` on a bad shape."""
    if not isinstance(document, dict):
        raise ConfigError(f"{source}: expected a JSON object")
    version = document.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError(
            f"{source}: schema_version {version!r} is not the supported "
            f"{SCHEMA_VERSION} — regenerate it with "
            "'python -m repro.bench scenarios'"
        )
    scenarios = document.get("scenarios")
    if not isinstance(scenarios, dict):
        raise ConfigError(f"{source}: missing 'scenarios' object")
    for name, result in scenarios.items():
        if not isinstance(result, dict):
            raise ConfigError(f"{source}: scenario {name!r} is not an object")
        for key in ("throughput", "latency_ms"):
            if key not in result:
                raise ConfigError(
                    f"{source}: scenario {name!r} lacks {key!r}"
                )
    return document


def write_results(path, document: dict) -> Path:
    """Validate and write ``document`` (sorted keys, trailing newline)."""
    path = Path(path)
    validate_document(document, source=str(path))
    path.write_text(
        json.dumps(document, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return path


def load_results(path) -> dict:
    """Read and validate a results document."""
    path = Path(path)
    try:
        raw = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read benchmark results {path}: {exc}")
    try:
        document = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from None
    return validate_document(document, source=str(path))


@dataclass(frozen=True)
class Regression:
    """One gate violation, ready to print."""

    scenario: str
    metric: str
    baseline: float
    current: float
    change_pct: float
    limit_pct: float
    #: Free-form context for non-numeric violations (field mismatches).
    detail: str = ""

    def __str__(self) -> str:
        if self.metric == "coverage":
            return (
                f"{self.scenario}: present in the baseline but missing "
                "from this run (remove it from the baseline to drop it "
                "deliberately)"
            )
        if self.metric == "fields":
            return (
                f"{self.scenario}: result fields diverged from the "
                f"baseline ({self.detail}) — the schema changed, "
                "regenerate the baseline in the same PR"
            )
        direction = "dropped" if self.metric == "throughput" else "rose"
        return (
            f"{self.scenario}: {self.metric} {direction} "
            f"{abs(self.change_pct):.1f}% (baseline {self.baseline:g} -> "
            f"{self.current:g}, limit {self.limit_pct:g}%)"
        )


def _p99_ms(result: dict) -> float:
    latency = result.get("latency_ms")
    if isinstance(latency, dict):
        return float(latency.get("p99", 0.0))
    return float(latency or 0.0)


def compare_to_baseline(
    current: dict,
    baseline: dict,
    max_throughput_drop_pct: float = MAX_THROUGHPUT_DROP_PCT,
    max_p99_rise_pct: float = MAX_P99_RISE_PCT,
    restrict_to: Optional[Sequence[str]] = None,
) -> List[Regression]:
    """Regressions of ``current`` against ``baseline`` (empty = gate green).

    Both arguments are validated documents.  Throughput is compared per
    scenario in its own unit (the drop is relative, so units cancel);
    p99 latency is read from ``latency_ms.p99`` (a job entry's scalar
    ``latency_ms``, its completion time).  A baseline value of
    zero never flags (nothing meaningful to compare against).

    ``restrict_to`` limits the comparison — including the
    scenario-disappeared coverage check — to the named scenarios: a
    ``--scenario``-filtered run deliberately omits the rest of the
    baseline, which must not read as vanished coverage.

    A scenario whose top-level field set gained or lost keys against
    the baseline flags a ``fields`` regression: silently ignoring
    unknown keys would let a schema change (new sections, renamed
    metrics) slide past the gate with a stale baseline still green.
    """
    regressions: List[Regression] = []
    current_scenarios = current["scenarios"]
    baseline_scenarios = baseline["scenarios"]
    names = (
        sorted(baseline_scenarios)
        if restrict_to is None
        else [n for n in sorted(baseline_scenarios) if n in set(restrict_to)]
    )
    for name in names:
        base = baseline_scenarios[name]
        if name not in current_scenarios:
            regressions.append(
                Regression(
                    scenario=name,
                    metric="coverage",
                    baseline=1.0,
                    current=0.0,
                    change_pct=100.0,
                    limit_pct=0.0,
                )
            )
            continue
        now = current_scenarios[name]
        gained = sorted(set(now) - set(base))
        lost = sorted(set(base) - set(now))
        if gained or lost:
            parts = []
            if gained:
                parts.append(f"gained: {', '.join(gained)}")
            if lost:
                parts.append(f"lost: {', '.join(lost)}")
            regressions.append(
                Regression(
                    scenario=name,
                    metric="fields",
                    baseline=float(len(base)),
                    current=float(len(now)),
                    change_pct=0.0,
                    limit_pct=0.0,
                    detail="; ".join(parts),
                )
            )
        base_thr = float(base.get("throughput", 0.0))
        now_thr = float(now.get("throughput", 0.0))
        if base_thr > 0:
            drop_pct = 100.0 * (base_thr - now_thr) / base_thr
            if drop_pct > max_throughput_drop_pct:
                regressions.append(
                    Regression(
                        scenario=name,
                        metric="throughput",
                        baseline=base_thr,
                        current=now_thr,
                        change_pct=-drop_pct,
                        limit_pct=max_throughput_drop_pct,
                    )
                )
        base_p99 = _p99_ms(base)
        now_p99 = _p99_ms(now)
        if base_p99 > 0:
            rise_pct = 100.0 * (now_p99 - base_p99) / base_p99
            if rise_pct > max_p99_rise_pct:
                regressions.append(
                    Regression(
                        scenario=name,
                        metric="p99_latency",
                        baseline=base_p99,
                        current=now_p99,
                        change_pct=rise_pct,
                        limit_pct=max_p99_rise_pct,
                    )
                )
    return regressions
