"""Differential oracle harness: production engine vs seed heap engine.

The production engine (`repro.sim.engine.Engine`) keeps same-tick events
in a FIFO ready queue and everything later in one heap; the reference
engine (`tests.engine_oracle.ReferenceEngine`) is the seed's single
binary heap.  The contract — the pattern ``test_exec_tier.py``
established for generated handler code — is that the staging must be
invisible: identical schedules produce identical firing sequences and
final clocks, so any divergence is a production-engine bug by
definition.

Schedules are interpreted twice from small declarative "op" programs so
both engines see the exact same structure: mixed zero/ulp/short/long
delays, exact ``at()`` timestamps, chained reschedules (events
scheduling more events), ``run(until)`` pause/resume (including an
``until`` already in the past), one-shot events with multiple waiters,
and generator processes.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import SimulationError
from repro.sim.engine import Engine
from tests.engine_oracle import ReferenceEngine

# -- schedule programs -------------------------------------------------------
#
# A program is a list of root ops; each op may carry children that its
# callback performs when it fires.  Ops:
#   ("sched", delay, children)   schedule(delay) a callback
#   ("at", offset, children)     at(now + offset) — exact absolute time
#   ("proc", [delays])           process sleeping through the delays
#   ("event", trigger_delay, n)  event with n waiters, triggered later

# A small pool, so timestamps collide often: the same tick, sub-ulp
# arithmetic (``now + 1e-9 == now`` once the clock is large), short and
# far-future delays.
DELAYS = [0.0, 1e-9, 0.5, 1.0, 4.0, 7.25, 12.0, 1000.0, 65536.0, 1e9]

delay_st = st.sampled_from(DELAYS) | st.floats(
    min_value=0.0, max_value=1e7, allow_nan=False, width=32
)

op_st = st.deferred(
    lambda: st.one_of(
        st.tuples(st.just("sched"), delay_st, children_st),
        st.tuples(st.just("at"), delay_st, children_st),
        st.tuples(st.just("proc"), st.lists(delay_st, max_size=3)),
        st.tuples(
            st.just("event"),
            delay_st,
            st.integers(min_value=0, max_value=3),
        ),
    )
)
children_st = st.lists(op_st, max_size=3)
program_st = st.lists(op_st, min_size=1, max_size=8)


def interpret(engine, program, trace):
    """Install ``program``'s root ops on ``engine``, tracing firings."""
    counter = [0]

    def fresh_label():
        counter[0] += 1
        return counter[0]

    def install(op):
        kind = op[0]
        label = fresh_label()
        if kind == "sched":
            _, delay, children = op
            engine.schedule(delay, fire, label, children)
        elif kind == "at":
            _, offset, children = op
            engine.at(engine.now + offset, fire, label, children)
        elif kind == "proc":
            _, delays = op

            def proc(label=label, delays=delays):
                for i, delay in enumerate(delays):
                    trace.append(("proc", label, i, engine.now))
                    yield engine.timeout(delay)
                trace.append(("proc-done", label, engine.now))
                return label

            engine.process(proc())
        elif kind == "event":
            _, delay, waiters = op
            event = engine.event()
            for i in range(waiters):
                event.add_callback(
                    lambda payload, label=label, i=i: trace.append(
                        ("waiter", label, i, payload, engine.now)
                    )
                )
            engine.schedule(delay, event.trigger, label)
            event.add_callback(
                lambda payload, label=label: trace.append(
                    ("late-waiter", label, payload, engine.now)
                )
            )

    def fire(label, children):
        trace.append(("fire", label, engine.now))
        for child in children:
            install(child)

    for op in program:
        install(op)


#: The oracle first, then the production engine.
ENGINE_FACTORIES = (ReferenceEngine, Engine)


def run_all(program, until_points=()):
    """Run the program on every engine; return (trace, clocks, pendings)."""
    results = []
    for factory in ENGINE_FACTORIES:
        engine = factory()
        trace = []
        interpret(engine, program, trace)
        clocks = []
        pendings = []
        for until in until_points:
            clocks.append(engine.run(until=until))
            pendings.append(engine.pending())
        clocks.append(engine.run())
        pendings.append(engine.pending())
        results.append((trace, clocks, pendings))
    return results


@settings(max_examples=200, deadline=None)
@given(program=program_st)
def test_firing_sequences_identical(program):
    reference, *others = run_all(program)
    for other in others:
        assert other == reference


@settings(max_examples=100, deadline=None)
@given(
    program=program_st,
    until_points=st.lists(
        st.floats(min_value=0.0, max_value=2e9, allow_nan=False),
        max_size=3,
    ),
)
def test_run_until_pauses_identical(program, until_points):
    """Unsorted on purpose: an ``until`` behind the clock must be a no-op
    on both engines."""
    reference, *others = run_all(program, until_points)
    for other in others:
        assert other == reference


@settings(max_examples=50, deadline=None)
@given(
    program=program_st,
    mid_ops=st.lists(op_st, max_size=4),
    pause=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
)
def test_scheduling_between_runs_identical(program, mid_ops, pause):
    """Ops installed while the engine is paused must replay identically."""
    results = []
    for factory in ENGINE_FACTORIES:
        engine = factory()
        trace = []
        interpret(engine, program, trace)
        engine.run(until=pause)
        interpret(engine, mid_ops, trace)
        final = engine.run()
        results.append((trace, final, engine.pending()))
    for other in results[1:]:
        assert other == results[0]


class TestExactAt:
    """`at()` must hit the requested absolute time to the last ulp."""

    def test_at_is_exact_even_when_delta_roundtrip_is_not(self):
        # A double-rounding trap: target - now ties to even (down), and
        # now + that delta ties to even (down again), so the seed's
        # ``when - now`` → ``now + delay`` round-trip fires two ulps
        # *early* — before other events keyed on the requested time.
        now_anchor = 1.0
        target = 2.0**53 + 2.0
        assert (target - now_anchor) + now_anchor != target  # the seed bug
        for engine_cls in (ReferenceEngine, Engine):
            engine = engine_cls()
            stamps = []
            engine.schedule(now_anchor, lambda: None)
            engine.run()
            engine.at(target, lambda: stamps.append(engine.now))
            engine.run()
            assert stamps == [target], engine_cls.__name__

    def test_at_shares_timestamp_key_with_other_at_calls(self):
        engine = Engine()
        order = []
        base = 123456.789
        engine.schedule(100.0, lambda: engine.at(base, order.append, "a"))
        engine.at(base, order.append, "b")
        engine.run()
        # Both land on the identical float key; seq breaks the tie.
        assert order == ["b", "a"]

    def test_at_in_the_past_rejected(self):
        engine = Engine()
        engine.schedule(10.0, lambda: None)
        engine.run()
        with pytest.raises(SimulationError):
            engine.at(5.0, lambda: None)

    def test_at_now_fires_same_tick(self):
        engine = Engine()
        seen = []
        engine.schedule(5.0, lambda: engine.at(engine.now, seen.append, "x"))
        engine.run()
        assert seen == ["x"]
        assert engine.now == 5.0


@pytest.mark.parametrize("engine_cls", ENGINE_FACTORIES)
class TestContractEdges:
    """Contract edges the oracle and the production engine must share."""

    def test_past_until_is_a_noop(self, engine_cls):
        engine = engine_cls()
        fired = []

        def note(label):
            fired.append((label, engine.now))

        engine.schedule(10, note, "a")
        engine.schedule(20, note, "b")
        assert engine.run(until=15) == 15
        # Behind the clock with "b" still pending: a rewind to 5 would
        # fire "c" at 6 — *after* "a" at 10.
        assert engine.run(until=5) == 15
        assert engine.pending() == 1
        engine.schedule(1, note, "c")
        engine.run()
        assert fired == [("a", 10), ("c", 16), ("b", 20)]

    def test_nan_times_rejected_like_negative_ones(self, engine_cls):
        engine = engine_cls()
        nan = math.nan
        for bad in (nan, -1.0):
            with pytest.raises(SimulationError):
                engine.schedule(bad, lambda: None)
            with pytest.raises(SimulationError):
                engine.at(bad, lambda: None)
            with pytest.raises(SimulationError):
                engine.timeout(bad)
        assert engine.pending() == 0
        assert engine.run() == 0.0

    def test_raising_callback_consumes_only_its_own_entry(self, engine_cls):
        engine = engine_cls()
        fired = []

        def boom():
            raise RuntimeError("boom")

        engine.at(5.0, fired.append, "before")
        engine.at(5.0, boom)
        engine.at(5.0, fired.append, "same-time")
        engine.at(5.0, lambda: engine.schedule(0.0, boom))
        engine.at(9.0, fired.append, "later")
        for remaining in (3, 1):
            with pytest.raises(RuntimeError):
                engine.run()
            assert engine.pending() == remaining
        assert engine.run() == 9.0
        assert fired == ["before", "same-time", "later"]


class TestStagingBoundaries:
    """Directed cases for the ready-queue/heap seam the fuzzer may miss."""

    def test_ulp_delay_fires_at_now_after_queued_tick(self):
        engine = Engine()
        order = []
        big = 1e12

        def at_big():
            engine.schedule(0.0, order.append, "tick")
            engine.schedule(1e-9, order.append, "ulp")  # now + d == now
            assert engine.now + 1e-9 == engine.now

        engine.schedule(big, at_big)
        engine.run()
        assert order == ["tick", "ulp"]
        assert engine.now == big

    def test_dense_unsorted_times_fire_in_time_then_seq_order(self):
        engine = Engine()
        fired = []
        times = [0.5, 15.9, 3.25, 15.9, 0.5, 8.0]
        for i, t in enumerate(times):
            engine.at(t, fired.append, (t, i))
        engine.run()
        assert fired == sorted(fired, key=lambda x: (x[0], x[1]))

    def test_far_event_interleaves_with_later_short_delays(self):
        engine = Engine()
        fired = []
        far = 65536.0
        engine.at(far + 100.0, fired.append, "far")
        # Scheduled long before, fired between two short delays that
        # are scheduled once the clock is almost there.
        engine.at(far + 50.0, lambda: engine.schedule(49.0, fired.append, "near"))
        engine.at(far + 50.0, lambda: engine.schedule(51.0, fired.append, "after"))
        engine.run()
        assert fired == ["near", "far", "after"]

    def test_equal_nonzero_timestamp_run_drains_in_seq_order(self):
        engine = Engine()
        fired = []
        when = 4096.0
        for i in range(100):
            engine.at(when, fired.append, i)
        # A same-timestamp child scheduled during the run fires after
        # every pre-scheduled entry (larger seq), before time moves on.
        engine.at(when, lambda: engine.schedule(0.0, fired.append, "child"))
        engine.at(when + 1.0, fired.append, "later")
        engine.run()
        assert fired == list(range(100)) + ["child", "later"]

    def test_long_hops_interleave_with_short_delays(self):
        engine = Engine()
        fired = []

        def hop(n):
            fired.append((n, engine.now))
            if n < 4:
                engine.schedule(131072.0, hop, n + 1)
                # Short delays must keep firing between the long hops.
                engine.schedule(1.0, fired.append, ("short", n))

        hop(0)
        engine.run()
        kinds = [f[0] for f in fired]
        assert kinds == [0, "short", 1, "short", 2, "short", 3, "short", 4]

    def test_at_before_a_later_queued_event_interleaves(self):
        engine = Engine()
        fired = []
        engine.at(40.0, fired.append, "a40")
        engine.at(48.0, fired.append, "a48")
        engine.at(8.0, lambda: engine.at(44.0, fired.append, "mid"))
        engine.run()
        assert fired == ["a40", "mid", "a48"]

    def test_pending_counts_all_stages(self):
        engine = Engine()
        engine.schedule(0.0, lambda: None)  # ready queue
        engine.at(10.0, lambda: None)  # heap
        assert engine.pending() == 2
        engine.run(until=5.0)
        assert engine.pending() == 1
        engine.run()
        assert engine.pending() == 0

    def test_huge_and_infinite_times(self):
        engine = Engine()
        fired = []
        engine.at(1e300, fired.append, "huge")
        engine.at(math.inf, fired.append, "inf")
        engine.schedule(1.0, fired.append, "soon")
        engine.run(until=1e301)
        assert fired == ["soon", "huge"]
        assert engine.pending() == 1
