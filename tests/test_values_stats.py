"""Tests for runtime values, measurement helpers and report rendering."""

import gc
import tracemalloc

import pytest

from repro.core.errors import RuntimeFlickError
from repro.core.units import (
    millis,
    rate_per_second,
    seconds,
    throughput_mbps,
    transmission_time_us,
)
from repro.lang.values import Record, record_size_bytes
from repro.runtime.scheduler import Scheduler
from repro.sim.engine import Engine
from repro.sim.stats import LatencySeries, RunResult, SloScoreboard

from tests.item_task import ItemTask


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

    def test_bad_percentile_rejected(self):
        series = LatencySeries()
        series.record(1)
        with pytest.raises(ValueError):
            series.percentile_us(101)

    def test_sorted_cache_invalidated_by_record(self):
        # The sorted view is cached between reads; a record() in between
        # must invalidate it, not serve stale quantiles.
        series = LatencySeries()
        for v in (30.0, 10.0, 20.0):
            series.record(v)
        assert series.max_us() == 30.0
        assert series.percentile_us(50) == 20.0
        series.record(40.0)
        assert series.max_us() == 40.0
        assert series.percentile_us(100) == 40.0
        assert series.count_over(25.0) == 2

    def test_count_over_is_strict_and_handles_duplicates(self):
        series = LatencySeries()
        for v in (1.0, 2.0, 2.0, 3.0):
            series.record(v)
        assert series.count_over(2.0) == 1  # strictly above
        assert series.count_over(0.5) == 4
        assert series.count_over(3.0) == 0
        assert series.count_over(None) == 0


@pytest.mark.usefixtures("traced")
class TestLogMemory:
    """The run-length logs cost a few machine words per row.

    A list of NamedTuples paid about 180 bytes per busy period (a tuple
    and two floats) and 120 per steal; columns of numbers pay 50 and 40.
    """

    ROW_BYTES = 64

    @pytest.fixture
    def traced(self):
        gc.collect()
        tracemalloc.start()
        yield
        tracemalloc.stop()

    def test_busy_periods(self):
        scoreboard = SloScoreboard()
        names = [f"conn{i}:compute" for i in range(8)]
        slo_us = 5_000.0
        before = tracemalloc.get_traced_memory()[0]
        for i in range(10_000):
            # Fresh floats per period, as the engine's clock makes them.
            admitted_us = i * 12.5
            scoreboard.record(
                i + 1_000, names[i % 8], "default", admitted_us,
                admitted_us + 7.25, slo_us,
            )
        grown = tracemalloc.get_traced_memory()[0] - before
        assert len(scoreboard.records) == 10_000
        assert grown / 10_000 <= self.ROW_BYTES

    def test_steals(self):
        # Every task pinned to worker 0: the other seven steal most of them.
        engine = Engine()
        scheduler = Scheduler(engine, 8, 50.0, "cooperative")
        scheduler.start()
        for index in range(6_000):
            task = ItemTask(f"t{index}", 1, 2.0, next(engine.task_ids))
            task.home_hint = 0
            scheduler.notify_runnable(task)
        engine.run()
        steals = len(scheduler.steal_log)
        assert steals >= 5_000
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        scheduler.steal_log = None
        freed = held - tracemalloc.get_traced_memory()[0]
        assert freed / steals <= self.ROW_BYTES


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
