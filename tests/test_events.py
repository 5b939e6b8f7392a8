"""Unit tests for the event queue.

An entry is a plain list ``[time, seq, action, args, state]``; ``push``
returns it as the cancel handle.  A run (``push_run``) is one heap entry for
several same-time ``(action, arg)`` pairs that leave one fresh entry each.
"""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.sim import events
from repro.sim.events import CANCELLED, LIVE, POPPED, EventQueue


def fire(entry) -> None:
    """What the engine does with a popped entry."""
    entry[2](*entry[3])


def test_push_and_pop_in_time_order():
    queue = EventQueue()
    order = []
    queue.push(3.0, lambda: order.append(3))
    queue.push(1.0, lambda: order.append(1))
    queue.push(2.0, lambda: order.append(2))
    while queue:
        fire(queue.pop())
    assert order == [1, 2, 3]


def test_fifo_order_for_equal_times():
    queue = EventQueue()
    order = []
    for i in range(5):
        queue.push(1.0, lambda i=i: order.append(i))
    # A run's pairs take the run's place in the FIFO, in list order.
    queue.push_run(1.0, [(order.append, i) for i in range(5, 8)])
    queue.push(1.0, lambda: order.append(8))
    queue.push_run(1.0, [(order.append, 9)])
    while queue:
        fire(queue.pop())
    assert order == list(range(10))


def test_len_counts_live_events():
    queue = EventQueue()
    entries = [queue.push(float(i), lambda: None) for i in range(5)]
    assert len(queue) == 5
    queue.cancel(entries[2])
    assert len(queue) == 4
    queue.pop()
    assert len(queue) == 3
    # A run counts the pairs it has not served yet.
    queue.push_run(0.5, [(print, i) for i in range(3)])
    assert len(queue) == 6
    queue.pop()
    assert len(queue) == 5
    queue.push_run(0.5, [])
    assert len(queue) == 5 and queue.pop()[3] == (1,)


def test_cancelled_events_are_skipped():
    queue = EventQueue()
    fired = []
    e1 = queue.push(1.0, lambda: fired.append("a"))
    queue.push(2.0, lambda: fired.append("b"))
    queue.cancel(e1)
    while queue:
        fire(queue.pop())
    assert fired == ["b"]
    assert e1[4] == CANCELLED


def test_cancel_is_idempotent():
    queue = EventQueue()
    entry = queue.push(1.0, lambda: None)
    queue.cancel(entry)
    queue.cancel(entry)
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
    assert queue.pop()[0] == 2.0
    assert len(queue) == 0
    assert first[4] == POPPED


def test_cancel_after_clear_is_a_noop():
    queue = EventQueue()
    dropped = queue.push(1.0, lambda: None)
    queue.push_run(1.0, [(print, 0), (print, 1)])
    queue.clear()
    queue.push(2.0, lambda: None)
    queue.cancel(dropped)
    assert len(queue) == 1
    assert dropped[4] == POPPED


def test_queue_is_the_only_cancellation_path():
    # Event.cancel() used to flip the flag behind the live count's back; the
    # handle is now a plain list with no methods of its own, and Event is gone.
    queue = EventQueue()
    entry = queue.push(1.0, lambda: None)
    assert type(entry) is list and entry[4] == LIVE
    assert not hasattr(events, "Event")
    queue.cancel(entry)
    assert entry[4] == CANCELLED and len(queue) == 0


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
    assert queue.pop_until(2.0) is late and late[4] == POPPED
    assert len(queue) == 0 and queue.pop_until(float("inf")) is None


def test_clear_drops_everything():
    queue = EventQueue()
    for i in range(3):
        queue.push(float(i), lambda: None)
    queue.push_run(0.5, [(print, 0), (print, 1)])
    queue.clear()
    assert len(queue) == 0
    assert queue.pop() is None


def test_nan_time_rejected():
    queue = EventQueue()
    with pytest.raises(ValueError):
        queue.push(float("nan"), lambda: None)
    with pytest.raises(ValueError):
        queue.push_run(float("nan"), [(print, 0), (print, 1)])
    assert len(queue) == 0 and queue.pop() is None


def test_bool_reflects_liveness():
    queue = EventQueue()
    assert not queue
    entry = queue.push(1.0, lambda: None)
    assert queue
    queue.cancel(entry)
    assert not queue
    queue.push_run(1.0, [(print, 0), (print, 1)])
    queue.pop()
    assert queue
    queue.pop()
    assert not queue


def test_equal_time_events_pop_in_push_order_across_other_times():
    queue = EventQueue()
    pushed = []
    for i in range(20):
        # Equal-time pushes interleaved with earlier and later ones.
        queue.push(0.5, lambda: None)
        pushed.append(queue.push(1.0, lambda: None, i))
        queue.push(1.5, lambda: None)
    tied = [entry for entry in iter(queue.pop, None) if entry[0] == 1.0]
    assert tied == pushed
    assert all(a is b for a, b in zip(tied, pushed))
    assert [entry[3] for entry in tied] == [(i,) for i in range(20)]


def test_incomparable_actions_and_args_at_equal_time_never_compared():
    # Ordering is decided by (time, seq) alone; lambdas and dicts have no "<".
    queue = EventQueue()
    payloads = [{"k": i} for i in range(50)]
    for payload in payloads:
        queue.push(1.0, lambda p: None, payload)
        queue.push_run(1.0, [(lambda p: None, {"other": payload}), (print, object())])
    popped = [queue.pop() for _ in range(150)]
    assert [entry[3][0] for entry in popped[::3]] == payloads
    assert [entry[3][0] for entry in popped[1::3]] == [{"other": payload} for payload in payloads]
    assert queue.pop() is None


@given(st.lists(st.floats(min_value=0.0, max_value=1e6, allow_nan=False), min_size=1, max_size=100))
def test_pop_order_is_sorted_for_random_times(times):
    queue = EventQueue()
    for t in times:
        queue.push(t, lambda: None)
    # Each time once more, as a two-pair run.
    for t in times:
        queue.push_run(t, [(print, 0), (print, 1)])
    popped = []
    while queue:
        popped.append(queue.pop()[0])
    assert popped == sorted(times * 3)


@given(
    st.lists(st.floats(min_value=0.0, max_value=100.0, allow_nan=False), min_size=2, max_size=50),
    st.data(),
)
def test_cancelling_random_subset_preserves_order(times, data):
    queue = EventQueue()
    entries = [queue.push(t, lambda: None) for t in times]
    to_cancel = data.draw(st.sets(st.integers(min_value=0, max_value=len(times) - 1), max_size=len(times) - 1))
    for index in to_cancel:
        queue.cancel(entries[index])
    expected = sorted(t for i, t in enumerate(times) if i not in to_cancel)
    popped = []
    while queue:
        popped.append(queue.pop()[0])
    assert popped == expected


TIMES = [0.0, 0.5, 1.0, 2.0]


@given(
    st.lists(
        st.one_of(
            # Few distinct times, so ties (decided by push order) are common.
            st.tuples(st.just("push"), st.sampled_from(TIMES)),
            # A run of 0..4 pairs; a push after a partly served run may be keyed below it.
            st.tuples(st.just("push_run"), st.tuples(st.sampled_from(TIMES), st.integers(0, 4))),
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

    A run's pairs share its place in push order and come out in list order.
    ``pop_until(limit)`` pops the same next event when it fires at or before
    ``limit`` and leaves the queue as it was (bar cancelled heads) otherwise.
    """
    queue = EventQueue()
    keys = []  # (time, push order, position in a run) of every event, indexed by its arg
    handles = {}  # event index -> the entry push returned (singles only)
    live = set()  # event indices still pending in the model
    pushes = 0
    for op, arg in ops:
        if op == "push":
            index = len(keys)
            keys.append((arg, pushes, 0))
            handles[index] = queue.push(arg, lambda _: None, index)
            live.add(index)
            pushes += 1
        elif op == "push_run":
            time, count = arg
            first = len(keys)
            keys.extend((time, pushes, position) for position in range(count))
            queue.push_run(time, [(print, first + position) for position in range(count)])
            live.update(range(first, first + count))
            pushes += count > 0
        elif op == "cancel":
            if handles:
                index = sorted(handles)[arg % len(handles)]
                queue.cancel(handles[index])  # may already be popped or cancelled
                live.discard(index)
        else:
            expected = min(live, key=keys.__getitem__, default=None)
            if op == "pop_until" and expected is not None and keys[expected][0] > arg:
                expected = None  # the next live event is not due yet
            entry = queue.pop() if op == "pop" else queue.pop_until(arg)
            if expected is None:
                assert entry is None
            else:
                assert entry[0] == keys[expected][0] and entry[3] == (expected,)
                assert entry[4] == POPPED
                if expected in handles:
                    assert entry is handles[expected]
                live.discard(expected)
        assert len(queue) == len(live)
        assert bool(queue) == bool(live)
        assert queue.peek_time() == min((keys[i][0] for i in live), default=None)


def test_push_keyed_below_a_half_served_run_comes_first():
    queue = EventQueue()
    order = []
    queue.push_run(1.0, [(order.append, "r0"), (order.append, "r1"), (order.append, "r2")])
    fire(queue.pop())
    queue.push(0.5, order.append, "earlier")
    queue.push(1.0, order.append, "same time, pushed later")
    assert len(queue) == 4
    while queue:
        fire(queue.pop())
    assert order == ["r0", "earlier", "r1", "r2", "same time, pushed later"]


def test_run_pairs_leave_as_fresh_entries_of_the_run_key():
    queue = EventQueue()
    queue.push(0.0, print)
    queue.push_run(2.0, [(print, "a"), (len, "b")])
    queue.pop()
    first, second = queue.pop(), queue.pop()
    assert first[0] == second[0] == 2.0 and first[1] == second[1] == 1
    assert (first[2], first[3], first[4]) == (print, ("a",), POPPED)
    assert (second[2], second[3], second[4]) == (len, ("b",), POPPED)
    assert first is not second and queue.pop() is None
