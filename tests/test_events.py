"""Unit tests for the event queue."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.sim.events import Event, EventQueue


def test_push_and_pop_in_time_order():
    queue = EventQueue()
    order = []
    queue.push(3.0, lambda: order.append(3))
    queue.push(1.0, lambda: order.append(1))
    queue.push(2.0, lambda: order.append(2))
    while queue:
        queue.pop().action()
    assert order == [1, 2, 3]


def test_fifo_order_for_equal_times():
    queue = EventQueue()
    order = []
    for i in range(10):
        queue.push(1.0, lambda i=i: order.append(i))
    while queue:
        queue.pop().action()
    assert order == list(range(10))


def test_len_counts_live_events():
    queue = EventQueue()
    events = [queue.push(float(i), lambda: None) for i in range(5)]
    assert len(queue) == 5
    queue.cancel(events[2])
    assert len(queue) == 4
    queue.pop()
    assert len(queue) == 3


def test_cancelled_events_are_skipped():
    queue = EventQueue()
    fired = []
    e1 = queue.push(1.0, lambda: fired.append("a"))
    queue.push(2.0, lambda: fired.append("b"))
    queue.cancel(e1)
    while queue:
        queue.pop().action()
    assert fired == ["b"]


def test_cancel_is_idempotent():
    queue = EventQueue()
    event = queue.push(1.0, lambda: None)
    queue.cancel(event)
    queue.cancel(event)
    assert len(queue) == 0
    assert queue.pop() is None


def test_cancel_after_pop_is_a_noop():
    queue = EventQueue()
    first = queue.push(1.0, lambda: None)
    queue.push(2.0, lambda: None)
    assert queue.pop() is first
    queue.cancel(first)  # already fired: must not eat the live event's count
    assert len(queue) == 1
    assert queue
    assert queue.peek_time() == 2.0
    assert queue.pop().time == 2.0
    assert len(queue) == 0
    assert not first.cancelled


def test_cancel_after_clear_is_a_noop():
    queue = EventQueue()
    dropped = queue.push(1.0, lambda: None)
    queue.clear()
    queue.push(2.0, lambda: None)
    queue.cancel(dropped)
    assert len(queue) == 1


def test_queue_is_the_only_cancellation_path():
    # Event.cancel() used to flip the flag behind the live count's back.
    assert not hasattr(Event, "cancel")


def test_peek_time_skips_cancelled():
    queue = EventQueue()
    first = queue.push(1.0, lambda: None)
    queue.push(2.0, lambda: None)
    queue.cancel(first)
    assert queue.peek_time() == 2.0


def test_peek_time_empty_returns_none():
    assert EventQueue().peek_time() is None


def test_pop_empty_returns_none():
    assert EventQueue().pop() is None


def test_pop_until_drops_cancelled_heads_and_keeps_a_later_live_head():
    queue = EventQueue()
    early = queue.push(1.0, lambda: None)
    late = queue.push(2.0, lambda: None)
    queue.cancel(early)
    assert queue.pop_until(1.5) is None
    assert len(queue) == 1 and queue.peek_time() == 2.0
    assert queue.pop_until(2.0) is late and late.popped
    assert len(queue) == 0 and queue.pop_until(float("inf")) is None


def test_clear_drops_everything():
    queue = EventQueue()
    for i in range(3):
        queue.push(float(i), lambda: None)
    queue.clear()
    assert len(queue) == 0
    assert queue.pop() is None


def test_nan_time_rejected():
    queue = EventQueue()
    with pytest.raises(ValueError):
        queue.push(float("nan"), lambda: None)


def test_bool_reflects_liveness():
    queue = EventQueue()
    assert not queue
    event = queue.push(1.0, lambda: None)
    assert queue
    queue.cancel(event)
    assert not queue


def test_equal_time_events_pop_in_push_order_across_other_times():
    queue = EventQueue()
    pushed = []
    for i in range(20):
        # Equal-time pushes interleaved with earlier and later ones.
        queue.push(0.5, lambda: None)
        pushed.append(queue.push(1.0, lambda: None, i))
        queue.push(1.5, lambda: None)
    tied = [event for event in iter(queue.pop, None) if event.time == 1.0]
    assert tied == pushed
    assert [event.args for event in tied] == [(i,) for i in range(20)]


def test_incomparable_actions_and_args_at_equal_time_never_compared():
    # Ordering is decided by (time, seq) alone; lambdas and dicts have no "<".
    queue = EventQueue()
    payloads = [{"k": i} for i in range(50)]
    for payload in payloads:
        queue.push(1.0, lambda p: None, payload)
        queue.push(1.0, print, {"other": payload}, object())
    popped = [queue.pop() for _ in range(100)]
    assert [event.args[0] for event in popped[::2]] == payloads
    assert queue.pop() is None


@given(st.lists(st.floats(min_value=0.0, max_value=1e6, allow_nan=False), min_size=1, max_size=100))
def test_pop_order_is_sorted_for_random_times(times):
    queue = EventQueue()
    for t in times:
        queue.push(t, lambda: None)
    popped = []
    while queue:
        popped.append(queue.pop().time)
    assert popped == sorted(times)


@given(
    st.lists(st.floats(min_value=0.0, max_value=100.0, allow_nan=False), min_size=2, max_size=50),
    st.data(),
)
def test_cancelling_random_subset_preserves_order(times, data):
    queue = EventQueue()
    events = [queue.push(t, lambda: None) for t in times]
    to_cancel = data.draw(st.sets(st.integers(min_value=0, max_value=len(times) - 1), max_size=len(times) - 1))
    for index in to_cancel:
        queue.cancel(events[index])
    expected = sorted(t for i, t in enumerate(times) if i not in to_cancel)
    popped = []
    while queue:
        popped.append(queue.pop().time)
    assert popped == expected


@given(
    st.lists(
        st.one_of(
            # Few distinct times, so ties (decided by push order) are common.
            st.tuples(st.just("push"), st.sampled_from([0.0, 0.5, 1.0, 2.0])),
            st.tuples(st.just("pop"), st.none()),
            # Limits on and between the push times, below and above all of them.
            st.tuples(st.just("pop_until"), st.sampled_from([-1.0, 0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0])),
            st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=200)),
        ),
        max_size=200,
    )
)
def test_interleaved_push_pop_cancel_matches_sorted_model(ops):
    """Pops come out in (time, push order) whatever pops and cancels interleave.

    ``pop_until(limit)`` pops the same next event when it fires at or before
    ``limit`` and leaves the queue as it was (bar cancelled heads) otherwise.
    """
    queue = EventQueue()
    handles = []  # every event ever pushed, in push order (index == seq)
    live = set()  # indices still pending in the model
    for op, arg in ops:
        if op == "push":
            live.add(len(handles))
            handles.append(queue.push(arg, lambda: None))
        elif op == "cancel":
            if handles:
                index = arg % len(handles)
                queue.cancel(handles[index])  # may already be popped or cancelled
                live.discard(index)
        else:
            expected = min(live, key=lambda i: (handles[i].time, i), default=None)
            if op == "pop_until" and expected is not None and handles[expected].time > arg:
                expected = None  # the next live event is not due yet
            event = queue.pop() if op == "pop" else queue.pop_until(arg)
            assert event is (None if expected is None else handles[expected])
            live.discard(expected)
        assert len(queue) == len(live)
        assert bool(queue) == bool(live)
        assert queue.peek_time() == min((handles[i].time for i in live), default=None)
