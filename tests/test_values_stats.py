"""Tests for runtime values, measurement helpers and report rendering."""

import gc
import math
import random
import sys
import tracemalloc
from array import array
from collections import Counter, deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.testbeds import Scenario, run_experiment
from repro.core.errors import RuntimeFlickError
from repro.core.units import (
    millis,
    rate_per_second,
    seconds,
    throughput_mbps,
    transmission_time_us,
)
from repro.lang.values import Record, record_size_bytes
from repro.net.stackprofiles import KERNEL
from repro.runtime.channel import TaskChannel
from repro.runtime.scheduler import Scheduler
from repro.runtime.task import RawForwardTask
from repro.sim.engine import Engine
from repro.sim.stats import (
    IntervalSeries, LatencySeries, RunResult, SloScoreboard, class_summary,
)

from tests.item_task import ItemTask
from tests.test_tasks_unit import _drain, _FakeSocket


class TestRecord:
    def test_field_access_styles(self):
        rec = Record("t", {"a": 1, "b": "x"})
        assert rec.a == 1
        assert rec["b"] == "x"
        assert rec.get("a") == 1

    def test_contains_and_keys(self):
        rec = Record("t", {"a": 1})
        assert "a" in rec and "z" not in rec
        assert rec.keys() == ("a",)

    def test_missing_field(self):
        rec = Record("t", {"a": 1})
        with pytest.raises(AttributeError):
            rec.z
        with pytest.raises(RuntimeFlickError):
            rec.get("z")

    def test_set_marks_dirty(self):
        rec = Record("t", {"a": 1})
        assert not rec.dirty
        rec.set("a", 2)
        assert rec.dirty and rec.a == 2

    def test_new_fields_rejected(self):
        rec = Record("t", {"a": 1})
        with pytest.raises(RuntimeFlickError):
            rec.set("b", 2)

    def test_equality_ignores_raw(self):
        a = Record("t", {"x": 1}, raw=b"aa")
        b = Record("t", {"x": 1}, raw=b"bb")
        assert a == b
        assert a != Record("u", {"x": 1})

    def test_copy_preserves_fields_and_raw(self):
        rec = Record("t", {"x": 1}, raw=b"zz")
        dup = rec.copy()
        assert dup == rec and dup.raw == b"zz"
        dup.set("x", 9)
        assert rec.x == 1

    def test_hashable(self):
        assert len({Record("t", {"x": 1}), Record("t", {"x": 1})}) == 1

    def test_repr_readable(self):
        assert "t(x=1)" == repr(Record("t", {"x": 1}))

    @pytest.mark.parametrize(
        "spec",
        [
            # Native foldt: ``_native_key``, ``_native_combine`` and the
            # reducer sink read every merged record.
            Scenario(app="hadoop_agg", data_kb_per_mapper=4, n_mappers=4),
            # The GETK client, the proxy's generated code and the backend.
            Scenario(
                app="memcached_proxy", arrival="poisson",
                arrival_params=(("rate_rps", 40_000.0),), concurrency=8,
                total_requests=256,
            ),
            Scenario(
                app="memcached_proxy", system="moxi", concurrency=8,
                total_requests=256,
            ),
            Scenario(app="http_lb", concurrency=8, requests_per_client=8),
        ],
        ids=["hadoop-native-foldt", "memcached-open-loop", "moxi", "http-lb"],
    )
    def test_run_paths_read_fields_without_the_fallback(self, spec, monkeypatch):
        """A ``record.name`` read fails the slot lookup first, and CPython
        builds an ``AttributeError`` before it calls ``__getattr__``
        (over ten times a ``_fields[name]`` read).  The patched fallback
        notes its caller and still answers, so one run names every such
        reader."""
        fallback = Record.__getattr__
        callers = Counter()

        def noting_fallback(record, name):
            code = sys._getframe(1).f_code
            callers[getattr(code, "co_qualname", code.co_name)] += 1  # 3.11+ has it
            return fallback(record, name)

        monkeypatch.setattr(Record, "__getattr__", noting_fallback)
        result = run_experiment(spec)
        assert result.throughput > 0
        assert not callers, f"fallback field reads: {dict(callers)}"


class TestRecordSize:
    def test_primitives(self):
        assert record_size_bytes(b"abc") == 3
        assert record_size_bytes("héllo") == 6
        assert record_size_bytes(7) == 8
        assert record_size_bytes(None) == 1

    def test_record_sums_fields(self):
        rec = Record("t", {"k": "abcd", "v": b"12"})
        assert record_size_bytes(rec) == 6

    def test_containers(self):
        assert record_size_bytes([b"a", b"bc"]) == 3
        assert record_size_bytes({"k": b"vv"}) == 3


class TestUnits:
    def test_time_conversions(self):
        assert seconds(2_000_000) == 2.0
        assert millis(1500) == 1.5

    def test_transmission_time(self):
        # 1 Gbit/s, 125 bytes = 1000 bits -> 1 us
        assert transmission_time_us(125, 1e9) == pytest.approx(1.0)

    def test_throughput(self):
        assert throughput_mbps(125_000, 1_000_000) == pytest.approx(1.0)

    def test_rates(self):
        assert rate_per_second(10, 1_000_000) == 10.0
        assert rate_per_second(10, 0) == 0.0

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            transmission_time_us(10, 0)


class TestLatencySeries:
    def test_mean(self):
        series = LatencySeries()
        for v in (100, 200, 300):
            series.record(v)
        assert series.mean_us() == 200
        assert series.mean_ms() == 0.2

    def test_percentiles(self):
        series = LatencySeries()
        for v in range(1, 101):
            series.record(float(v))
        assert series.percentile_us(50) == pytest.approx(50.5)
        assert series.percentile_us(99) == pytest.approx(99.01)
        assert series.percentile_us(0) == 1
        assert series.percentile_us(100) == 100

    def test_empty_series(self):
        series = LatencySeries()
        assert series.mean_us() == 0.0
        assert series.percentile_us(99) == 0.0
        assert series.max_us() == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            LatencySeries().record(-1)

    def test_nan_rejected(self):
        # NaN compares unequal to everything: a sort and a selection
        # could then disagree on the order statistics.
        series = LatencySeries()
        with pytest.raises(ValueError):
            series.record(float("nan"))
        assert series.count == 0

    def test_nan_gap_rejected(self):
        series = IntervalSeries()
        series.observe(10.0)
        with pytest.raises(ValueError):
            series.observe(float("nan"))
        late = IntervalSeries()
        late.observe(float("nan"))  # the first observation has no gap
        with pytest.raises(ValueError):
            late.observe(10.0)
        assert series.count == late.count == 0

    def test_bad_percentile_rejected(self):
        series = LatencySeries()
        series.record(1)
        with pytest.raises(ValueError):
            series.percentile_us(101)

    def test_reads_see_every_record(self):
        series = LatencySeries()
        for v in (30.0, 10.0, 20.0):
            series.record(v)
        assert series.max_us() == 30.0
        assert series.percentile_us(50) == 20.0
        series.record(40.0)
        assert series.max_us() == 40.0
        assert series.percentile_us(100) == 40.0


# ---------------------------------------------------------------------------
# Selection and sorting report the same floats
# ---------------------------------------------------------------------------

PERCENTILES = (0.0, 50.0, 90.0, 99.0, 99.9, 100.0)

#: Non-negative floats, infinity included, with few distinct values
#: mixed in so that ties are common.
SAMPLE = st.floats(min_value=0.0, allow_nan=False) | st.sampled_from([0.0, 1.5, 7.0])


def sorted_percentile(samples, p):
    """The percentile by the definition: sort, then interpolate linearly
    between the closest ranks."""
    ordered = sorted(samples)
    rank = (p / 100.0) * (len(ordered) - 1)
    low, high = math.floor(rank), math.ceil(rank)
    if low == high:
        return ordered[low]
    frac = rank - low
    return ordered[low] * (1 - frac) + ordered[high] * frac


def sorted_summary_ms(samples):
    return {
        "mean": millis(sum(samples) / len(samples)),
        "p50": millis(sorted_percentile(samples, 50.0)),
        "p99": millis(sorted_percentile(samples, 99.0)),
        "max": millis(sorted(samples)[-1]),
    }


@settings(max_examples=200, deadline=None)
@given(st.lists(SAMPLE, min_size=1, max_size=400))
def test_series_reads_equal_the_sorted_reference(samples):
    series = LatencySeries()
    for sample in samples:
        series.record(sample)
    for p in PERCENTILES:
        assert series.percentile_us(p) == sorted_percentile(samples, p)
    assert series.max_us() == max(samples)
    assert series.mean_us() == sum(samples) / len(samples)
    assert series.percentile_summary_ms() == sorted_summary_ms(samples)


#: One busy period: its class, its latency and whether it has an SLO.
PERIOD = st.tuples(st.sampled_from(["gold", "bronze", "default"]), SAMPLE, st.booleans())


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(PERIOD, max_size=120), min_size=1, max_size=3))
def test_class_summary_equals_the_concatenated_reference(shards):
    """Over 1-3 boards, each class's numbers are those of its samples
    concatenated in shard order and sorted."""
    task = ItemTask("t", 1, 1.0, 1)
    boards = []
    samples, misses = {}, {}
    for periods in shards:
        board = SloScoreboard()
        for name, latency_us, has_slo in periods:
            slo_us = 100.0 if has_slo else None
            board.record(task, name, 0.0, latency_us, slo_us)
            samples.setdefault(name, []).append(latency_us)
            misses[name] = misses.get(name, 0) + (has_slo and latency_us > slo_us)
        boards.append(board)
    expected = {
        name: {
            "completions": len(values),
            "misses": misses[name],
            "shed": 0,
            "retried": 0,
            "mean_ms": millis(sum(values) / len(values)),
            "p99_ms": millis(sorted_percentile(values, 99.0)),
            "max_ms": millis(max(values)),
        }
        for name, values in samples.items()
    }
    summary = class_summary(boards)
    assert summary == expected
    assert list(summary) == list(expected)


@pytest.mark.usefixtures("traced")
class TestBoundedState:
    """The scheduler keeps per-class aggregates, not per-event logs: a
    busy period costs the scoreboard one 8-byte latency sample, and a
    steal costs nothing beyond the thief's counters.  A channel or
    socket reader that has carried items and drained them holds no
    queue."""

    #: A class's series, array and dict entries, plus its array's
    #: growth slack at this size (an ``array`` over-allocates 1/16).
    CLASS_BYTES = 1024

    @pytest.fixture
    def traced(self):
        gc.collect()
        tracemalloc.start()
        yield
        tracemalloc.stop()

    def test_a_busy_period_costs_one_sample(self):
        scoreboard = SloScoreboard()
        tasks = [ItemTask(f"conn{i}:compute", 1, 1.0, i) for i in range(8)]
        classes = [f"class{i}" for i in range(8)]
        periods = 10_000
        before = tracemalloc.get_traced_memory()[0]
        for i in range(periods):
            # Fresh floats per period, as the engine's clock makes them.
            admitted_us = i * 12.5
            scoreboard.record(
                tasks[i % 8], classes[i % 8], admitted_us,
                admitted_us + 7.25, 5_000.0,
            )
        grown = tracemalloc.get_traced_memory()[0] - before
        assert scoreboard.total_completions == periods
        assert grown <= 8 * periods + self.CLASS_BYTES * len(classes)

    def test_steals_leave_nothing_behind(self):
        def freed_by_the_scheduler(n_tasks):
            # Every task pinned to worker 0: the other seven steal
            # most of them.
            engine = Engine()
            scheduler = Scheduler(engine, 8, "cooperative")
            scheduler.start()
            for index in range(n_tasks):
                task = ItemTask(f"t{index}", 1, 2.0, next(engine.task_ids))
                task.home_hint = 0
                scheduler.notify_runnable(task)
            del task
            engine.run()
            steals = scheduler.total_steals
            scoreboard = scheduler.scoreboard  # noqa: F841 - kept alive
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
            del scheduler
            gc.collect()
            return steals, held - tracemalloc.get_traced_memory()[0]

        few_steals, few_bytes = freed_by_the_scheduler(1_500)
        many_steals, many_bytes = freed_by_the_scheduler(6_000)
        assert many_steals - few_steals >= 3_500
        assert many_bytes - few_bytes < many_steals - few_steals

    def test_a_report_keeps_no_copy_of_the_samples(self):
        """``class_summary`` reads a board's samples where they lie: its
        peak is a small multiple of the p99 tail, not a sorted list of
        every sample (32 bytes each) next to a merged array."""
        n = 200_000
        rng = random.Random(3)
        task = ItemTask("t", 1, 1.0, 1)
        board = SloScoreboard()
        tracemalloc.stop()  # fill the board untraced: the report is measured
        for _ in range(n):
            board.record(task, "gold", 0.0, rng.expovariate(0.01), 250.0)
        tracemalloc.start()
        before = tracemalloc.get_traced_memory()[0]
        summary = class_summary([board])
        assert summary["gold"]["completions"] == n
        assert tracemalloc.get_traced_memory()[1] - before < 2 * n + 64 * 1024

        series = board.latency["gold"]
        series.percentile_summary_ms()
        kept = [
            name for name, value in vars(series).items()
            if value is not series._samples and isinstance(value, (list, array))
        ]
        assert kept == []

    #: A drained channel: the object, its dict and its name.  An empty
    #: ``deque`` alone is 760 bytes on CPython 3.11.
    CHANNEL_BYTES = 320
    #: A drained socket reader with its out channel and socket stub.
    READER_BYTES = 1024

    @staticmethod
    def _freed_per_object(objects):
        """Traced bytes that dropping ``objects`` frees, per object: what
        they hold, and not what a shared cache kept of them."""
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        count = len(objects)
        objects.clear()
        gc.collect()
        return (held - tracemalloc.get_traced_memory()[0]) / count

    def test_drained_channels_hold_no_deque(self, traced):
        channels = [TaskChannel(f"c{i}", 8) for i in range(1_000)]
        for chan in channels:
            for item in range(3):
                chan.push(item)
            assert [chan.pop() for _ in range(3)] == [0, 1, 2]
        assert not [c for c in channels if isinstance(c._queue, deque)]
        assert self._freed_per_object(channels) <= self.CHANNEL_BYTES

    def test_drained_socket_readers_hold_no_deque(self, traced):
        readers, runnable = [], []
        for i in range(1_000):
            out = TaskChannel("out", 8)
            reader = RawForwardTask("fwd", out, KERNEL, cores=1, task_id=i)
            socket = _FakeSocket()
            reader.attach(socket, runnable.append)
            socket.deliver(b"chunk-1")
            socket.deliver(b"chunk-2")
            _drain(reader)
            assert [out.pop(), out.pop()] == [b"chunk-1", b"chunk-2"]
            readers.append((reader, socket))
            runnable.clear()
        assert not [
            r for r, _ in readers
            if isinstance(r._chunks, deque) or isinstance(r._out._queue, deque)
        ]
        assert self._freed_per_object(readers) <= self.READER_BYTES

    def test_a_run_grows_by_its_samples(self):
        """A memcached proxy run's traced peak grows by what its series
        hold per request (a client latency, an arrival gap, about five
        busy periods, 8 bytes each) plus one sorted report, not by
        copies of them or by parsed bytes kept per connection."""
        spec = Scenario(
            app="memcached_proxy", arrival="poisson",
            arrival_params=(("rate_rps", 40_000.0),),
            concurrency=4, key_space=64, total_requests=50,
        )
        run_experiment(spec)  # compiled program and codecs are cached

        def peak(total_requests):
            gc.collect()
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            run_experiment(spec._replace(total_requests=total_requests))
            return tracemalloc.get_traced_memory()[1] - before

        small, large = 500, 1_500
        assert peak(large) - peak(small) <= 128 * (large - small)


def test_class_summary_merges_shards_in_order():
    """A fleet's per-class summary is the summary of each class's
    samples concatenated in shard order, bit for bit, with classes in
    the order they first appear across the shards."""
    rng = random.Random(5)
    task = ItemTask("t", 1, 1.0, 1)
    shards = [SloScoreboard(), SloScoreboard()]
    concatenated = SloScoreboard()
    for shard, names in zip(shards, (("gold", "default"), ("bronze", "gold"))):
        for _ in range(300):
            name = rng.choice(names)
            admitted_us = rng.uniform(0.0, 10_000.0)
            completed_us = admitted_us + rng.expovariate(1 / 300.0)
            slo_us = None if name == "default" else 400.0
            for board in (shard, concatenated):
                board.record(task, name, admitted_us, completed_us, slo_us)
    merged = class_summary(shards)
    assert merged == concatenated.summary()
    assert list(merged) == list(concatenated.summary())
    assert list(merged)[-1] == "bronze"  # only the second shard has it
    assert 0 < merged["gold"]["misses"] < merged["gold"]["completions"]


class TestReport:
    def test_format_table(self):
        from repro.bench.report import format_table

        out = format_table(("a", "bb"), [(1, 2), (33, 4)])
        lines = out.splitlines()
        assert lines[0].startswith("a")
        assert len(lines) == 4

    def test_series_chart_scales_to_peak(self):
        from repro.bench.report import format_series_chart

        out = format_series_chart({"s": [1.0, 2.0]}, ["x1", "x2"], width=10)
        rows = [l for l in out.splitlines() if "#" in l]
        assert rows[1].count("#") == 2 * rows[0].count("#")

    def test_empty_chart(self):
        from repro.bench.report import format_series_chart

        assert "no data" in format_series_chart({}, [])

    def test_summarize(self):
        from repro.bench.report import summarize

        out = summarize(
            {"sys": [RunResult("sys", 4, throughput=10.0, latency_ms=1.5)]}
        )
        assert "sys" in out and "10.0" in out
