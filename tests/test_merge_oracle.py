"""Differential harness: the foldt merge node vs its earlier form.

``tests/merge_oracle.py`` keeps the merge node as it was before it
became one loop over locals that computes each record's key once and
pushes a slice's records in one emission.  The contract is that none
of that is visible: the same deliveries, closes, slices and drains give
the same output stream, the same per-slice ``elapsed``, ``busy_us`` and
input records popped, the same ``has_work`` answers and the same
exception.  Both foldt pairs the platform runs are checked, the native
key/combine and the FLICK-compiled ``build_foldt_handler`` pair, and a
third whose combine changes the key.

Both forms stop a slice once its output fills the headroom its out
channel had when the slice began (``InputTask`` does the same), so a
small out channel never raises ``ChannelFull`` out of ``engine.run()``.
"""

from __future__ import annotations

from collections import deque
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.hadoop_agg import (
    NATIVE_COMBINE_OPS,
    _native_combine,
    _native_key,
    compile_hadoop,
)
from repro.lang.compiler import build_foldt_handler
from repro.lang.values import Record
from repro.runtime.channel import EOS, TaskChannel
from repro.runtime.policy import make_policy
from repro.runtime.scheduler import Scheduler, TaskBase
from repro.runtime.task import MergeTask
from repro.sim.engine import Engine
from tests.merge_oracle import ReferenceMergeTask


def _native_pair():
    return _native_key, _native_combine


def _flick_pair():
    program = compile_hadoop()
    handler = build_foldt_handler(program, program.procs["hadoop"].foldt)
    return handler.key, handler.combine_with_ops


def _rekeying_pair():
    """A foldt body may give the combined record a key of its own."""

    def combine(left, right):
        merged, ops = _native_combine(left, right)
        return _kv(merged.key + "+", merged.value), ops

    return _native_key, combine


PAIRS = {
    "native": _native_pair,
    "flick": _flick_pair,
    "rekeying": _rekeying_pair,
}


def _kv(key: str, value: str) -> Record:
    return Record(
        "kv",
        {
            "key_len": len(key.encode("utf-8")),
            "value_len": len(value.encode("utf-8")),
            "key": key,
            "value": value,
        },
    )


def _item(item):
    return "EOS" if item is EOS else (item.key, item.value)


# -- inputs --------------------------------------------------------------------
#
# A side is a sorted key stream (duplicates within a side, and keys
# shared across sides, are both likely with six letters) cut into
# delivery chunks.  A script interleaves, on the test's clock:
#   ("deliver", side)  push that side's next chunk, if any is left
#   ("close", side)    close that side, once all of it is delivered
#   ("step", budget)   one slice, then its emissions in order
#   ("drain", n)       the out channel's reader pops up to n items

side_st = st.tuples(
    st.lists(st.sampled_from("abcdef"), max_size=14).map(sorted),
    st.lists(st.integers(1, 4), min_size=1, max_size=6),
)
# Whole multiples of the per-record charges land a slice exactly on its
# budget, where ``>=`` and ``>`` part ways.
budget_st = st.one_of(
    st.sampled_from([0.0, None, 0.5, 1.0, 1.5, 2.0, 3.0]),
    st.floats(0.1, 5.0, allow_nan=False),
)
action_st = st.one_of(
    st.tuples(st.just("deliver"), st.sampled_from("lr")),
    st.tuples(st.just("close"), st.sampled_from("lr")),
    st.tuples(st.just("step"), budget_st),
    st.tuples(st.just("drain"), st.integers(1, 4)),
)
capacity_st = st.sampled_from([1, 2, 3, 64])


def _chunks(side, salt: int):
    keys, sizes = side
    pairs = [(k, str(1 + (i * 7 + salt) % 9)) for i, k in enumerate(keys)]
    chunks, at = deque(), 0
    while at < len(pairs):
        size = sizes[len(chunks) % len(sizes)]
        chunks.append(pairs[at : at + size])
        at += size
    return chunks


def _drive(task_cls, pair, left_side, right_side, script, capacity):
    """Run ``script`` on one merge node; return everything observable."""
    chans = {"l": TaskChannel("l", 256), "r": TaskChannel("r", 256)}
    out = TaskChannel("o", capacity)
    key_fn, combine_fn = pair
    task = task_cls("m", chans["l"], chans["r"], out, key_fn, combine_fn, task_id=1)
    chunks = {"l": _chunks(left_side, 0), "r": _chunks(right_side, 3)}
    trace = []

    def queued():
        return len(chans["l"]) + len(chans["r"])

    def slice_(budget):
        before = queued()
        elapsed, emissions = task.step(budget)
        trace.append(("step", elapsed, task.busy_us, before - queued()))
        for emit in emissions:
            emit()
        trace.append(("has_work", task.has_work()))

    def drain(n):
        for _ in range(n):
            if out.empty():
                return
            trace.append(("out", _item(out.pop())))

    def run_action(action, arg):
        if action == "deliver":
            if chunks[arg]:
                for key, value in chunks[arg].popleft():
                    chans[arg].push(_kv(key, value))
        elif action == "close":
            if not chunks[arg] and not chans[arg].closed:
                chans[arg].close()
        elif action == "step":
            slice_(arg)
        else:
            drain(arg)

    try:
        for action, arg in script:
            run_action(action, arg)
        # Then everything arrives and closes, and the reader keeps up.
        for side in "lr":
            while chunks[side]:
                run_action("deliver", side)
            run_action("close", side)
        for _ in range(200):
            drain(capacity + 1)
            if not task.has_work():
                break
            slice_(None)
        # The reader saw the close, and the merge consumed both inputs'
        # end-of-stream markers.
        inputs = [(c.exhausted(), c.empty()) for c in chans.values()]
        trace.append(("end", out.exhausted(), inputs))
    except Exception as exc:  # noqa: BLE001 - the class is compared
        trace.append(("raised", type(exc).__name__))
    return trace


@pytest.mark.parametrize("pair", sorted(PAIRS))
@settings(max_examples=150, deadline=None)
@given(
    left=side_st,
    right=side_st,
    script=st.lists(action_st, max_size=30),
    capacity=capacity_st,
)
def test_merge_matches_the_oracle(pair, left, right, script, capacity):
    fns = PAIRS[pair]()
    expected = _drive(ReferenceMergeTask, fns, left, right, script, capacity)
    actual = _drive(MergeTask, fns, left, right, script, capacity)
    assert actual == expected


# -- under the scheduler --------------------------------------------------------
#
# The merge now wakes its reader once per slice, not once per push.  A
# wake only queues a task that is not queued or running, so a second
# wake in one batch of emissions must change nothing: the reader sees
# the same records at the same virtual times, and every task runs the
# same number of slices.


class _Reader(TaskBase):
    """The out channel's consumer: pops everything, stamping the time."""

    def __init__(self, engine, inbox: TaskChannel, seen: list):
        super().__init__("reader", next(engine.task_ids))
        self._engine = engine
        self._inbox = inbox
        self._seen = seen

    def has_work(self) -> bool:
        return not self._inbox.empty()

    def step(self, budget_us):
        while not self._inbox.empty():
            self._seen.append((self._engine.now, _item(self._inbox.pop())))
        return 1.0, []


def _scheduled(task_cls, pair, left_side, right_side, gaps, policy, slice_us,
               cores, capacity):
    engine = Engine()
    sched = Scheduler(
        engine, cores, make_policy(policy, timeslice_us=slice_us)
    )
    chans = {"l": TaskChannel("l", 256), "r": TaskChannel("r", 256)}
    out = TaskChannel("o", capacity)
    merge = task_cls(
        "m", chans["l"], chans["r"], out, *pair, task_id=next(engine.task_ids)
    )
    seen = []
    merge.wake = partial(sched.notify_runnable, _Reader(engine, out, seen))
    for side, salt, cut in (("l", 0, left_side), ("r", 3, right_side)):
        chunks, at = _chunks(cut, salt), 0.0
        for index in range(len(chunks) + 1):
            at += gaps[(index + salt) % len(gaps)]
            chunk = chunks[index] if index < len(chunks) else None
            engine.schedule(at, _deliver, sched, merge, chans[side], chunk)
    sched.start()
    try:
        engine.run()
    except Exception as exc:  # noqa: BLE001 - the class is compared
        seen.append(("raised", type(exc).__name__))
    return (
        seen, engine.now, sched.tasks_executed,
        merge.busy_us, [len(chan) for chan in chans.values()],
    )


def _deliver(sched, merge, chan: TaskChannel, chunk) -> None:
    """A producer's turn: push a chunk (or close), then wake the merge."""
    if chunk is None:
        chan.close()
    else:
        for key, value in chunk:
            chan.push(_kv(key, value))
    sched.notify_runnable(merge)


@pytest.mark.parametrize("pair", sorted(PAIRS))
@settings(max_examples=75, deadline=None)
@given(
    left=side_st,
    right=side_st,
    gaps=st.lists(st.floats(0.0, 5.0, allow_nan=False), min_size=1,
                  max_size=5),
    policy=st.sampled_from(
        ["cooperative", "non_cooperative", "round_robin", "batch"]
    ),
    slice_us=st.floats(0.1, 5.0, allow_nan=False),
    cores=st.integers(1, 2),
    capacity=capacity_st,
)
def test_scheduled_merge_matches_the_oracle(
    pair, left, right, gaps, policy, slice_us, cores, capacity
):
    args = (PAIRS[pair](), left, right, gaps, policy, slice_us, cores,
            capacity)
    expected = _scheduled(ReferenceMergeTask, *args)
    assert _scheduled(MergeTask, *args) == expected


def test_a_slice_stops_at_its_out_channel_headroom():
    """Four disjoint records a side and an out channel of two: a
    run-to-completion slice stops once its output fills the channel's
    headroom, so nothing raises, by hand or under the scheduler, and
    both forms emit every record as the reader makes room."""
    left = (list("aceg"), [4])
    right = (list("bdfh"), [4])
    script = [("deliver", "l"), ("deliver", "r"), ("close", "l"),
              ("close", "r"), ("step", None)]
    for task_cls in (ReferenceMergeTask, MergeTask):
        trace = _drive(task_cls, _native_pair(), left, right, script, 2)
        assert trace[:2] == [("step", 1.5, 1.5, 3), ("has_work", False)]
        outs = [entry[1] for entry in trace if entry[0] == "out"]
        assert [key for key, _ in outs[:-1]] == list("abcdefgh")
        assert outs[-1] == "EOS" and trace[-1][0] == "end"
        seen, *_ = _scheduled(
            task_cls, _native_pair(), left, right, [1.0], "non_cooperative",
            50.0, 1, 2,
        )
        assert not any(kind == "raised" for kind, _ in seen)


def _attribute_combine(left, right):
    """``_native_combine`` as it read its fields before, through
    ``Record.__getattr__``."""
    value = str(int(left.value) + int(right.value))
    merged = _kv(left.key, value)
    return merged, NATIVE_COMBINE_OPS


@settings(max_examples=200, deadline=None)
@given(
    keys=st.tuples(st.text(min_size=1, max_size=12), st.text(max_size=12)),
    values=st.tuples(st.integers(), st.integers()),
)
def test_native_combine_equals_its_attribute_form(keys, values):
    """The native pair reads ``_fields``; the merged record, its field
    order and its op charge are the ones the attribute reads gave, for
    any key (non-ASCII ones change ``key_len``) and any count."""
    left = _kv(keys[0], str(values[0]))
    right = _kv(keys[1], str(values[1]))
    merged, ops = _native_combine(left, right)
    expected, expected_ops = _attribute_combine(left, right)
    assert merged == expected and ops == expected_ops
    assert list(merged._fields) == list(expected._fields)
    assert (merged.raw, merged.dirty) == (None, False)
    assert _native_key(left) == left.key and _native_key(right) == right.key
