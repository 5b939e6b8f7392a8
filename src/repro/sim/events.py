"""Discrete-event queue primitives.

The simulator is a classic discrete-event system: every future action is an
:class:`Event` with an absolute (real) firing time and a callback.  Events
fired at the same time are ordered by insertion sequence number, which makes
runs fully deterministic for a given seed and scenario.

The heap holds ``(time, seq, event)`` tuples.  ``seq`` is unique per queue,
so a comparison is always decided by the ``(time, seq)`` prefix -- a C-level
float/int compare -- and never reaches the event, its action or its
arguments, which therefore need not be comparable.

Cancellation is lazy: cancelling an event marks it and the queue skips it on
pop.  This keeps the queue a plain binary heap and avoids O(n) removal.

Every event enters through :meth:`EventQueue.push` and leaves through one pop
path, :meth:`EventQueue.pop_until`: one call per event the engine fires.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Callable, Optional


@dataclass(eq=False, slots=True)
class Event:
    """A scheduled callback; the handle :meth:`EventQueue.cancel` takes.

    Attributes
    ----------
    time:
        Absolute real time at which the event fires.
    seq:
        Tie-breaking sequence number (insertion order).
    action:
        Callable executed when the event fires.
    args:
        Positional arguments passed to ``action``.  Scheduling hot paths (one
        event per message) pass a bound method plus its argument here instead
        of allocating a fresh closure per event.
    cancelled:
        Lazily-set cancellation flag; cancelled events are skipped.
    popped:
        Set when the queue hands the event out; cancelling it afterwards is
        a no-op (it already left the live count).
    """

    time: float
    seq: int
    action: Callable[..., None]
    args: tuple = ()
    cancelled: bool = False
    popped: bool = False

    def fire(self) -> None:
        """Execute the event's callback."""
        self.action(*self.args)


class EventQueue:
    """A time-ordered queue of :class:`Event` objects.

    The queue guarantees FIFO order among events scheduled for the same time,
    which is what makes simulations reproducible.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Event]] = []
        self._counter = itertools.count()
        self._live = 0

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def push(self, time: float, action: Callable[..., None], *args) -> Event:
        """Schedule ``action(*args)`` at absolute time ``time`` and return its event."""
        if time != time:  # NaN guard
            raise ValueError("event time must not be NaN")
        seq = next(self._counter)
        event = Event(time, seq, action, args)
        heappush(self._heap, (time, seq, event))
        self._live += 1
        return event

    def cancel(self, event: Event) -> None:
        """Cancel a previously pushed event (no-op if already cancelled or popped)."""
        if not (event.cancelled or event.popped):
            event.cancelled = True
            self._live -= 1

    def pop_until(self, limit: float) -> Optional[Event]:
        """Pop and return the next live event if it fires at or before ``limit``, else ``None``."""
        heap = self._heap
        while heap:
            time, _, event = heap[0]
            if not event.cancelled:
                if time > limit:
                    return None
                heappop(heap)
                event.popped = True
                self._live -= 1
                return event
            heappop(heap)  # a cancelled head
        return None

    def pop(self) -> Optional[Event]:
        """Pop and return the next live event, or ``None`` if there is none."""
        return self.pop_until(math.inf)

    def peek_time(self) -> Optional[float]:
        """Return the firing time of the next live event without popping it."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heappop(heap)
        if not heap:
            return None
        return heap[0][0]

    def clear(self) -> None:
        """Drop every pending event (a later ``cancel`` of one is a no-op)."""
        for entry in self._heap:
            entry[2].popped = True
        self._heap.clear()
        self._live = 0
