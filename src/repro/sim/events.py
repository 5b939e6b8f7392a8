"""Discrete-event queue primitives.

The simulator is a classic discrete-event system: every future action is a
queue entry with an absolute (real) firing time and a callback.  Entries
fired at the same time are ordered by insertion sequence number, which makes
runs fully deterministic for a given seed and scenario.

An entry is a plain list ``[time, seq, action, args, state]``, and the heap
holds the entries themselves.  ``seq`` is unique per queue, so a comparison
is always decided by the ``(time, seq)`` prefix -- a C-level float/int
compare -- and never reaches the action or its arguments, which therefore
need not be comparable.  :meth:`EventQueue.push` returns the entry as the
handle :meth:`EventQueue.cancel` takes; the engine reads ``[0]`` (time),
``[2]`` (action) and ``[3]`` (args) of what the queue hands out.

A **run** (:meth:`EventQueue.push_run`) is one entry for several
``(action, arg)`` pairs that fire at the same time, in list order -- a
broadcast's deliveries that share one clamped delay.  It keeps its
``(time, seq)`` key, so it stays at the heap top until its last pair is
served while an entry pushed later with a smaller key still comes out first.
Each pair leaves as its own fresh entry: one event per pop, as for a single.

Cancellation is lazy: cancelling an entry marks it and the queue skips it on
pop.  This keeps the queue a plain binary heap and avoids O(n) removal.

Every event enters through :meth:`EventQueue.push` or
:meth:`EventQueue.push_run` and leaves through one pop path,
:meth:`EventQueue.pop_until`: one call per event the engine fires.
"""

from __future__ import annotations

import itertools
import math
from heapq import heappop, heappush
from typing import Callable, Optional

#: An entry's ``state`` (index 4): pending, handed out (or cleared), or cancelled.
LIVE, POPPED, CANCELLED = 0, 1, 2


class EventQueue:
    """A time-ordered queue of ``[time, seq, action, args, state]`` entries.

    The queue guarantees FIFO order among events scheduled for the same time,
    which is what makes simulations reproducible.
    """

    def __init__(self) -> None:
        self._heap: list[list] = []
        self._counter = itertools.count()
        #: Live singles plus the pairs runs have not served yet.
        self._live = 0

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def push(self, time: float, action: Callable[..., None], *args) -> list:
        """Schedule ``action(*args)`` at absolute time ``time`` and return its entry."""
        if time != time:  # NaN guard
            raise ValueError("event time must not be NaN")
        entry = [time, next(self._counter), action, args, LIVE]
        heappush(self._heap, entry)
        self._live += 1
        return entry

    def push_run(self, time: float, pairs: list) -> None:
        """Schedule ``action(arg)`` for each ``(action, arg)`` of ``pairs`` at ``time``, in order.

        One heap entry whatever the number of pairs (a single pair is stored
        as an ordinary entry); a run's action slot is ``None`` and its args
        slot the pairs still to serve, last one first.  A run cannot be
        cancelled.
        """
        if time != time:  # NaN guard
            raise ValueError("event time must not be NaN")
        count = len(pairs)
        if count == 1:
            action, arg = pairs[0]
            heappush(self._heap, [time, next(self._counter), action, (arg,), LIVE])
        elif count:
            heappush(self._heap, [time, next(self._counter), None, pairs[::-1], LIVE])
        self._live += count

    def cancel(self, entry: list) -> None:
        """Cancel a previously pushed entry (no-op if already cancelled or popped)."""
        if entry[4] == LIVE:
            entry[4] = CANCELLED
            self._live -= 1

    def pop_until(self, limit: float) -> Optional[list]:
        """Pop and return the next live event if it fires at or before ``limit``, else ``None``.

        A single leaves as its own entry; a run's next pair as a fresh one.
        """
        heap = self._heap
        while heap:
            entry = heap[0]
            if entry[4] != CANCELLED:
                if entry[0] > limit:
                    return None
                self._live -= 1
                if entry[2] is not None:
                    heappop(heap)
                    entry[4] = POPPED
                    return entry
                pending = entry[3]
                action, arg = pending.pop()
                if not pending:
                    heappop(heap)
                return [entry[0], entry[1], action, (arg,), POPPED]
            heappop(heap)  # a cancelled head
        return None

    def pop(self) -> Optional[list]:
        """Pop and return the next live event, or ``None`` if there is none."""
        return self.pop_until(math.inf)

    def peek_time(self) -> Optional[float]:
        """Return the firing time of the next live event without popping it."""
        heap = self._heap
        while heap and heap[0][4] == CANCELLED:
            heappop(heap)
        if not heap:
            return None
        return heap[0][0]

    def clear(self) -> None:
        """Drop every pending entry (a later ``cancel`` of one is a no-op)."""
        for entry in self._heap:
            entry[4] = POPPED
        self._heap.clear()
        self._live = 0
