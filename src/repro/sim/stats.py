"""Measurement helpers for simulated experiments.

:class:`LatencySeries` collects per-request latencies;
:class:`SloScoreboard` logs task busy periods in a :class:`ColumnLog`
and :func:`class_summary` derives the per-service-class completions,
latency and SLO misses from such logs; :class:`IntervalSeries` records
the gaps between successive events (the realised inter-arrival times of
an open-loop workload).  Summaries report virtual-µs durations in the
milliseconds the paper's figures use.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from functools import lru_cache
from typing import (
    Dict, Generic, Iterable, Iterator, List, Mapping, NamedTuple, Optional,
    Tuple, TypeVar,
)

from repro.core.units import millis


class LatencySeries:
    """Collects latency samples (virtual µs).

    Percentile/max/count-over accessors share one cached sorted view,
    invalidated by a dirty bit on :meth:`record` — a full report
    (:meth:`percentile_summary_ms`) costs one O(n log n) sort no matter
    how many quantiles it reads, instead of one sort *per accessor* as
    the seed did.  With million-sample scenario series the repeated
    sorts showed up in wall-clock.  The samples are an ``array('d')``:
    8 bytes each instead of a list slot plus a float object.
    """

    def __init__(self):
        self._samples = array("d")
        self._sorted: List[float] = []
        self._dirty = False

    def record(self, latency_us: float) -> None:
        if latency_us < 0:
            raise ValueError(f"negative latency {latency_us}")
        self._samples.append(latency_us)
        self._dirty = True

    def _ordered(self) -> List[float]:
        if self._dirty:
            self._sorted = sorted(self._samples)
            self._dirty = False
        return self._sorted

    def __len__(self) -> int:
        return len(self._samples)

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
        if not self._samples:
            return 0.0
        if not 0 <= p <= 100:
            raise ValueError(f"percentile out of range: {p}")
        ordered = self._ordered()
        rank = (p / 100.0) * (len(ordered) - 1)
        low = math.floor(rank)
        high = math.ceil(rank)
        if low == high:
            return ordered[low]
        frac = rank - low
        return ordered[low] * (1 - frac) + ordered[high] * frac

    def max_us(self) -> float:
        return self._ordered()[-1] if self._samples else 0.0

    def percentile_summary_ms(self) -> Dict[str, float]:
        """The figure-ready percentile series: mean/p50/p99/max in ms."""
        return {
            "mean": self.mean_ms(),
            "p50": millis(self.percentile_us(50.0)),
            "p99": millis(self.percentile_us(99.0)),
            "max": millis(self.max_us()),
        }


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


_Row = TypeVar("_Row", bound=tuple)


def _realign(columns: Tuple) -> None:
    """Drop a half-appended row: every column back to the shortest."""
    rows = min(map(len, columns))
    for column in columns:
        del column[rows:]


@lru_cache(maxsize=None)
def _appender_factory(width: int):
    """``bind(p0, ..., pn, columns)`` returning ``append(v0, ..., vn)``,
    which calls ``pi(vi)`` for every column, spelled out one call per
    column as :func:`collections.namedtuple` spells out its ``__new__``
    (a loop over the columns costs three times the appends themselves).
    A value a column refuses leaves no part of its row behind.  Compiled
    once per width: schedulers are built by the thousand in tests."""
    puts = ", ".join(f"p{i}" for i in range(width))
    values = ", ".join(f"v{i}" for i in range(width))
    calls = "; ".join(f"p{i}(v{i})" for i in range(width))
    source = (
        f"def bind({puts}, columns):\n"
        f"    def append({values}):\n"
        f"        try:\n"
        f"            {calls}\n"
        f"        except BaseException:\n"
        f"            _realign(columns)\n"
        f"            raise\n"
        f"    return append\n"
    )
    namespace = {"_realign": _realign}
    exec(source, namespace)
    return namespace["bind"]


class ColumnLog(Generic[_Row]):
    """An append-only log of ``row`` NamedTuples, kept one column per field.

    ``typecodes`` has one character per field of ``row``: an
    :mod:`array` typecode (``q``, ``i``, ``d``, ...) stores that field
    as raw numbers, and ``O`` stores it in a list (a name, an SLO that
    may be ``None``, a tuple), which holds one pointer to an object the
    caller already shares.  A row so costs a few machine words instead
    of a tuple and a float object per time stamp.

    ``append(*values)`` takes every field's value, in field order.
    Reading builds the rows: ``len``, ``bool`` and iteration answer as
    a list of ``row`` values would.  :meth:`rows` yields plain tuples,
    for a reader that only unpacks them.
    """

    __slots__ = ("_make", "_columns", "append")

    def __init__(self, row: type, typecodes: str):
        if len(typecodes) != len(row._fields):
            raise ValueError(
                f"{row.__name__} has {len(row._fields)} fields, "
                f"got typecodes {typecodes!r}"
            )
        self._make = row._make
        self._columns: Tuple = tuple(
            [] if code == "O" else array(code) for code in typecodes
        )
        self.append = _appender_factory(len(typecodes))(
            *(column.append for column in self._columns), self._columns
        )

    def __len__(self) -> int:
        return len(self._columns[0])

    def __iter__(self) -> Iterator[_Row]:
        return map(self._make, zip(*self._columns))

    def rows(self) -> Iterator[tuple]:
        """Every row as a plain tuple, in order."""
        return zip(*self._columns)


class SloRecord(NamedTuple):
    """One accounted busy period of a task: admission to drain.

    ``slo_us`` is the latency target the task carried (its service
    class's SLO, or the platform-wide one); ``None`` means the task was
    unclassified and cannot miss.
    """

    task_id: int
    task: str
    service_class: str
    admitted_us: float
    completed_us: float
    slo_us: Optional[float] = None

    @property
    def latency_us(self) -> float:
        return self.completed_us - self.admitted_us

    @property
    def deadline_us(self) -> Optional[float]:
        """Absolute deadline: admission + SLO (``None`` without one)."""
        if self.slo_us is None:
            return None
        return self.admitted_us + self.slo_us

    @property
    def missed(self) -> bool:
        deadline = self.deadline_us
        return deadline is not None and self.completed_us > deadline


def class_summary(
    records: Iterable[tuple],
    client_outcomes: Optional[Mapping[str, Mapping[str, int]]] = None,
) -> Dict[str, Dict[str, float]]:
    """Per-class aggregate dict (plain numbers, safe to pin golden).

    Completions, SLO misses and latency come from the busy-period
    ``records``, :class:`SloRecord` values or plain tuples in its field
    order (every platform's, in shard order for a fleet, so each class's
    samples and their float sums are in a fixed order);
    ``shed`` and ``retried`` come from ``client_outcomes``, the client
    population's per-class table (:meth:`~repro.workloads.arrivals.
    ClientPopulation.admission_summary`), because a shed or retried
    request never closed a busy period anywhere.  A class that only
    ever shed or retried still appears, with zeroed completion and
    latency fields: it is an outcome, not an accounting gap.
    """
    latency: Dict[str, LatencySeries] = {}
    misses: Dict[str, int] = {}
    for _, _, name, admitted_us, completed_us, slo_us in records:
        series = latency.get(name)
        if series is None:
            series = latency[name] = LatencySeries()
            misses[name] = 0
        # SloRecord.missed and .latency_us, spelled out.
        if slo_us is not None and completed_us > admitted_us + slo_us:
            misses[name] += 1
        series.record(completed_us - admitted_us)
    clients = client_outcomes or {}
    names = dict.fromkeys(latency)
    names.update(
        (name, None)
        for name, row in clients.items()
        if row["shed"] or row["retried"]
    )
    report: Dict[str, Dict[str, float]] = {}
    for name in names:
        series = latency.get(name) or LatencySeries()
        row = clients.get(name, {})
        report[name] = {
            "completions": series.count,
            "misses": misses.get(name, 0),
            "shed": row.get("shed", 0),
            "retried": row.get("retried", 0),
            "mean_ms": series.mean_ms(),
            "p99_ms": millis(series.percentile_us(99.0)),
            "max_ms": millis(series.max_us()),
        }
    return report


class SloScoreboard:
    """The scheduler's log of task busy periods, one row each.

    The scheduling mechanism records one row per task *busy period*
    (admission to drain, matching the 'deadline' policy's SLO clock);
    classes are the :class:`~repro.runtime.qos.ServiceClass` names
    stamped by the task graph, with unclassified tasks pooled under
    ``"default"``.  :attr:`records` is the only state, a
    :class:`ColumnLog` of :class:`SloRecord`: the task id and both time
    stamps are stored as numbers, the names and the SLO as references
    to the task's own objects.  :func:`class_summary` derives every
    per-class aggregate from its :meth:`~ColumnLog.rows` once the run
    is over.
    """

    def __init__(self):
        self.records: ColumnLog[SloRecord] = ColumnLog(SloRecord, "qOOddO")

    def record(
        self,
        task_id: int,
        task: str,
        service_class: str,
        admitted_us: float,
        completed_us: float,
        slo_us: Optional[float] = None,
    ) -> None:
        if completed_us < admitted_us:
            raise ValueError(
                f"task {task!r} completed at {completed_us} before its "
                f"admission at {admitted_us}"
            )
        self.records.append(
            task_id, task, service_class, admitted_us, completed_us, slo_us
        )

    @property
    def total_completions(self) -> int:
        return len(self.records)

    def summary(self) -> Dict[str, Dict[str, float]]:
        """:func:`class_summary` of this scheduler's records alone."""
        return class_summary(self.records.rows())


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
