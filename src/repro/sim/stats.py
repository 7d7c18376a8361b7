"""Measurement helpers for simulated experiments.

:class:`LatencySeries` collects per-request latencies;
:class:`SloScoreboard` accounts task busy periods per service class
and :func:`class_summary` merges such boards into the per-class
completions, latency and SLO misses; :class:`IntervalSeries` records
the gaps between successive events (the realised inter-arrival times of
an open-loop workload).  Summaries report virtual-µs durations in the
milliseconds the paper's figures use.  A series keeps its samples and
no view of them: a report sorts a local copy, and a single percentile
(``class_summary``'s p99) selects in place.
"""

from __future__ import annotations

import heapq
import math
from array import array
from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

from repro.core.units import millis


class LatencySeries:
    """Collects latency samples (virtual µs): an ``array('d')``, 8 bytes
    each, in record order, and no sorted view of them.

    :meth:`percentile_summary_ms` sorts one local copy; :meth:`percentile_us`
    selects (:func:`_percentile`), so p99 lists the top 1% of the samples,
    not all of them.  Both read the same order statistics because equal
    floats are interchangeable, which NaN is not: :meth:`record` rejects it.
    """

    def __init__(self):
        self._samples = array("d")

    def record(self, latency_us: float) -> None:
        if not latency_us >= 0.0:
            raise ValueError(f"latency must be >= 0, got {latency_us}")
        self._samples.append(latency_us)

    @property
    def count(self) -> int:
        return len(self._samples)

    def mean_us(self) -> float:
        if not self._samples:
            return 0.0
        return sum(self._samples) / len(self._samples)

    def mean_ms(self) -> float:
        return millis(self.mean_us())

    def percentile_us(self, p: float) -> float:
        return _percentile(self._samples, len(self._samples), p)

    def max_us(self) -> float:
        return max(self._samples, default=0.0)

    def percentile_summary_ms(self) -> Dict[str, float]:
        """The figure-ready percentile series: mean/p50/p99/max in ms."""
        ordered = sorted(self._samples)
        n = len(ordered)
        return {
            "mean": self.mean_ms(),
            "p50": millis(_interpolated(ordered, n, 50.0)),
            "p99": millis(_interpolated(ordered, n, 99.0)),
            "max": millis(ordered[-1] if n else 0.0),
        }


def _interpolated(tail: Sequence[float], n: int, p: float) -> float:
    """The ``p``-th percentile of ``n`` samples (0.0 for none), linear
    between the order statistics around rank ``p / 100 * (n - 1)``, read
    from ``tail``: the largest samples in ascending order, all of those
    at or above that rank."""
    if not n:
        return 0.0
    rank = (p / 100.0) * (n - 1)
    low = math.floor(rank)
    i = low - (n - len(tail))
    frac = rank - low
    if not frac:
        return tail[i]
    return tail[i] * (1 - frac) + tail[i + 1] * frac


def _percentile(samples: Iterable[float], n: int, p: float) -> float:
    """:func:`_interpolated` over the samples at or above the rank, which
    one pass selects (:func:`heapq.nlargest`) without copying the rest.
    A heap entry costs more than a sorted float, so a tail of more than
    half the samples is read from one sorted copy instead."""
    if not 0 <= p <= 100:
        raise ValueError(f"percentile out of range: {p}")
    k = n - math.floor((p / 100.0) * (n - 1))
    if 2 * k > n:
        return _interpolated(sorted(samples), n, p)
    tail = heapq.nlargest(k, samples)
    tail.reverse()
    return _interpolated(tail, n, p)


class IntervalSeries(LatencySeries):
    """Gaps between successive observations (virtual µs).

    Open-loop workload generators feed every admission clock tick into
    one of these; the inherited percentile accessors then describe the
    *realised* inter-arrival distribution (e.g. a bursty process shows a
    small p50 gap and a large p99 gap), which the scenario results
    record next to the configured arrival process.
    """

    def __init__(self):
        super().__init__()
        self._last_us: Optional[float] = None

    def observe(self, now_us: float) -> None:
        """Record the gap since the previous observation (first is free)."""
        if self._last_us is not None:
            self.record(now_us - self._last_us)
        self._last_us = now_us


def class_summary(
    scoreboards: Iterable[SloScoreboard],
    client_outcomes: Optional[Mapping[str, Mapping[str, int]]] = None,
) -> Dict[str, Dict[str, float]]:
    """Per-class aggregate dict (plain numbers, safe to pin golden).

    Completions, SLO misses and latency come from ``scoreboards`` (every
    platform's, in shard order for a fleet): each class's samples are
    read board by board where they lie, never concatenated, so their
    order and float sums are fixed, and classes appear in the order they
    first closed a busy period.
    ``shed`` and ``retried`` come from ``client_outcomes``, the client
    population's per-class table (:meth:`~repro.workloads.arrivals.
    ClientPopulation.admission_summary`), because a shed or retried
    request never closed a busy period anywhere.  A class that only
    ever shed or retried still appears, with zeroed completion and
    latency fields: it is an outcome, not an accounting gap.
    """
    samples: Dict[str, List[array]] = {}
    misses: Dict[str, int] = {}
    for board in scoreboards:
        for name, series in board.latency.items():
            samples.setdefault(name, []).append(series._samples)
            misses[name] = misses.get(name, 0) + board.misses[name]
    clients = client_outcomes or {}
    names = dict.fromkeys(samples)
    names.update(
        (name, None)
        for name, row in clients.items()
        if row["shed"] or row["retried"]
    )
    report: Dict[str, Dict[str, float]] = {}
    for name in names:
        arrays = samples.get(name, ())
        count = sum(map(len, arrays))
        row = clients.get(name, {})
        report[name] = {
            "completions": count,
            "misses": misses.get(name, 0),
            "shed": row.get("shed", 0),
            "retried": row.get("retried", 0),
            "mean_ms": millis(sum(chain.from_iterable(arrays)) / count if count else 0.0),
            "p99_ms": millis(_percentile(chain.from_iterable(arrays), count, 99.0)),
            "max_ms": millis(max(chain.from_iterable(arrays), default=0.0)),
        }
    return report


class SloScoreboard:
    """The scheduler's per-service-class account of task busy periods.

    The scheduling mechanism closes one *busy period* per task
    admission (admission to drain, matching the 'deadline' policy's SLO
    clock) and hands it to :meth:`record`; classes are the
    :class:`~repro.runtime.qos.ServiceClass` names stamped by the task
    graph, with unclassified tasks pooled under ``"default"``.  Per
    class, in the order classes first appear, the board keeps exactly
    what :func:`class_summary` reads: one latency sample per busy
    period (8 bytes in a :class:`LatencySeries`) in :attr:`latency`,
    and in :attr:`misses` how many periods overran their SLO.
    """

    def __init__(self):
        self.latency: Dict[str, LatencySeries] = {}
        self.misses: Dict[str, int] = {}

    def record(
        self,
        task,
        service_class: str,
        admitted_us: float,
        completed_us: float,
        slo_us: Optional[float] = None,
    ) -> None:
        """Account ``task``'s busy period under ``service_class``; it
        misses when it drained after ``admitted_us + slo_us`` (never
        without an SLO)."""
        if completed_us < admitted_us:
            raise ValueError(
                f"task {task.name!r} completed at {completed_us} before "
                f"its admission at {admitted_us}"
            )
        series = self.latency.get(service_class)
        if series is None:
            series = self.latency[service_class] = LatencySeries()
            self.misses[service_class] = 0
        if slo_us is not None and completed_us > admitted_us + slo_us:
            self.misses[service_class] += 1
        series.record(completed_us - admitted_us)

    @property
    def total_completions(self) -> int:
        return sum(series.count for series in self.latency.values())

    def summary(self) -> Dict[str, Dict[str, float]]:
        """:func:`class_summary` of this scheduler's busy periods alone."""
        return class_summary([self])


@dataclass
class RunResult:
    """One experiment data point: a plotted marker of a figure, and the
    measured sections of a scenario entry.

    ``entry`` is built once, in the nested shape a
    ``BENCH_scenarios.json`` entry stores, from the objects that hold
    its numbers (client population or mapper job, schedulers, fault,
    shard router); :func:`repro.bench.scenarios.run_scenario` adds only
    the spec's echo.  ``backend_requests`` is the number of requests
    the backend servers served, in no document.
    """

    system: str
    x: float  # the figure's x value (clients, cores, ...)
    throughput: float = 0.0  # in the figure's unit
    latency_ms: float = 0.0
    entry: Dict[str, object] = field(default_factory=dict)
    backend_requests: int = 0

    @property
    def extra(self) -> Dict[str, float]:
        """A flat, read-only view of ``entry`` for
        ``benchmarks/hosttime/adapter.py`` alone, with exactly the keys
        that file reads; everything else reads ``entry``."""
        entry = self.entry
        if "job" in entry:
            return dict(entry["job"])
        view = {
            key: entry[key]
            for key in (
                "offered", "completed", "failed", "retried", "measured",
                "errors",
            )
        }
        view["p99_ms"] = entry["latency_ms"]["p99"]
        view["admitted"] = entry["admission"]["admitted"]
        view["shed"] = entry["admission"]["shed"]
        return view
