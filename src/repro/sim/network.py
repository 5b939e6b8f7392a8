"""Message-passing network with adversarially controlled delays.

The Srikanth-Toueg model assumes a fully connected, reliable network in which
every message between correct processes is delivered within ``tdel`` real time
(and not before ``tmin``, which defaults to 0).  The adversary chooses the
actual delay of every message within those bounds.  Delay *policies* encode
the adversary's strategy: uniform random, always-max, targeted (deliver fast
to one set of nodes and slowly to another to maximise skew), or an arbitrary
user-supplied function.

Faulty senders are subject to the same delay bounds -- in the Srikanth-Toueg
model faulty processes cannot make messages travel faster than the network
allows -- but they may of course send anything to anyone at any time.
"""

from __future__ import annotations

import itertools
import random
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple, Optional

from .recorder import OnlineMetricsRecorder, Recorder

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers only
    from .engine import Simulation


class Envelope(NamedTuple):
    """A message in flight (or delivered); immutable, compared by value.

    The payload is opaque to the network; algorithms define their own message
    dataclasses in :mod:`repro.core.messages`.
    """

    msg_id: int
    sender: int
    dest: int
    payload: object
    send_time: float
    deliver_time: float


class DelayPolicy(ABC):
    """Strategy choosing the delay of each message within ``[tmin, tdel]``."""

    #: True when :meth:`delay` returns a unit sample in ``[0, 1]`` that the
    #: network scales into the window, instead of a delay that it clamps.
    unit_sample = False

    @abstractmethod
    def delay(self, sender: int, dest: int, payload: object, time: float, rng: random.Random) -> float:
        """Return the delay for this message (will be clamped to the bounds)."""


class FixedDelay(DelayPolicy):
    """Every message takes exactly ``value`` time."""

    def __init__(self, value: float) -> None:
        self.value = float(value)

    def delay(self, sender, dest, payload, time, rng):
        """The fixed value, whatever the message."""
        return self.value


class MaxDelay(DelayPolicy):
    """Every message takes the maximum allowed delay (worst-case latency)."""

    def delay(self, sender, dest, payload, time, rng):
        """Infinity, which the network clamps to ``tdel``."""
        return float("inf")


class MinDelay(DelayPolicy):
    """Every message takes the minimum allowed delay."""

    def delay(self, sender, dest, payload, time, rng):
        """Zero, which the network clamps to ``tmin``."""
        return 0.0


class UniformDelay(DelayPolicy):
    """Delays drawn independently and uniformly from ``[tmin, tdel]``."""

    unit_sample = True

    def delay(self, sender, dest, payload, time, rng):
        """One unit sample, which the network scales into ``[tmin, tdel]``."""
        return rng.random()


class TargetedDelay(DelayPolicy):
    """Deliver quickly to a favoured set of nodes and slowly to the rest.

    This is the canonical skew-maximising adversary: it tries to make one
    group of correct processes observe every event ``tdel - tmin`` earlier
    than the other group, pushing their clocks apart by the full delay
    uncertainty each round.
    """

    def __init__(self, fast_destinations: Iterable[int], jitter: float = 0.0) -> None:
        self.fast_destinations = frozenset(fast_destinations)
        self.jitter = float(jitter)

    def delay(self, sender, dest, payload, time, rng):
        """Zero (plus jitter) toward the favoured set, infinity toward the rest."""
        base = 0.0 if dest in self.fast_destinations else float("inf")
        if self.jitter > 0.0:
            return base + rng.uniform(0.0, self.jitter)
        return base


class FunctionDelay(DelayPolicy):
    """Adapter turning a plain callable into a delay policy."""

    def __init__(self, fn: Callable[[int, int, object, float, random.Random], float]) -> None:
        self.fn = fn

    def delay(self, sender, dest, payload, time, rng):
        """Whatever the wrapped callable returns."""
        return self.fn(sender, dest, payload, time, rng)


@dataclass
class NetworkStats:
    """Counters maintained by the network for message-complexity analysis."""

    total_messages: int = 0
    messages_by_sender: dict[int, int] = field(default_factory=dict)
    messages_by_type: dict[str, int] = field(default_factory=dict)


class Network:
    """Fully connected point-to-point network bound to a :class:`Simulation`.

    Processes register a delivery callback under their process id; sending a
    message schedules a delivery event after a policy-chosen delay clamped to
    ``[tmin, tdel]``.
    """

    def __init__(
        self,
        sim: "Simulation",
        tmin: float,
        tdel: float,
        policy: Optional[DelayPolicy] = None,
        seed: int = 0,
        recorder: Optional["Recorder"] = None,
    ) -> None:
        if tdel <= 0:
            raise ValueError(f"tdel must be positive, got {tdel}")
        if not 0 <= tmin <= tdel:
            raise ValueError(f"tmin must satisfy 0 <= tmin <= tdel, got tmin={tmin}, tdel={tdel}")
        self.sim = sim
        self.tmin = float(tmin)
        self.tdel = float(tdel)
        self.policy = policy or UniformDelay()
        self.rng = random.Random(seed)
        self.stats = NetworkStats()
        self.recorder = recorder
        # Call (once per message) only into a recorder whose on_message does
        # something: not the base no-op, nor the metrics one without sampling.
        on_message = getattr(type(recorder), "on_message", Recorder.on_message)
        self._records_messages = on_message is not Recorder.on_message and not (
            on_message is OnlineMetricsRecorder.on_message and recorder.sample_messages is None
        )
        self._handlers: dict[int, Callable[[Envelope], None]] = {}
        #: Sorted pids of ``_handlers``; None after a register/unregister.
        self._participants: Optional[tuple[int, ...]] = None
        self._msg_ids = itertools.count()
        self._floors: dict[int, int] = {}
        #: Messages the stale-round rule sent without a delivery event.
        self.pruned = 0

    # -- registration -------------------------------------------------------

    def register(self, pid: int, handler: Callable[[Envelope], None]) -> None:
        """Register the delivery callback for process ``pid``."""
        self._handlers[pid] = handler
        self._participants = None

    def unregister(self, pid: int) -> None:
        """Remove a process from the network: messages sent to it from now on go nowhere.

        A delivery already in flight holds the handler it was sent to and
        still reaches it; a crashed process ignores those (``Process.halt``).
        """
        self._handlers.pop(pid, None)
        self._participants = None

    def _sorted_participants(self) -> tuple[int, ...]:
        if self._participants is None:
            self._participants = tuple(sorted(self._handlers))
        return self._participants

    def participants(self) -> list[int]:
        """Process ids currently attached to the network."""
        return list(self._sorted_participants())

    def publish_floor(self, pid: int, floor: int) -> None:
        """Declare that ``pid`` ignores rounds below ``floor`` from now on (honest trackers only)."""
        self._floors[pid] = floor

    # -- sending ------------------------------------------------------------

    def _emit(
        self, sender: int, destinations: Iterable[int], payload: object, delay: Optional[float] = None
    ) -> list[Envelope]:
        """The one message path: ``payload`` from ``sender`` to each destination in order.

        Per destination: one delay (``delay``, else one policy draw) brought
        into ``[tmin, tdel]``, the next ``msg_id``, one envelope shown to the
        recorder, one delivery event that calls the destination's registered
        handler with the envelope (a no-op without one).  The **stale-round rule**
        (``docs/kernel.md``) skips only the event: a round below the floor the
        destination published is a no-op on arrival.  A clamped delay takes
        few distinct values (two under ``TargetedDelay``), so those deliveries
        are collected per delivery time and pushed as one run per time after
        the loop: nothing else is pushed meanwhile, so they keep the order
        one push per message would give.  Scaled (uniform) delays are all
        distinct and push one event each.  The hottest path of a run, so
        whatever does not depend on the destination is hoisted.
        """
        sim = self.sim
        now = sim.now
        tmin, tdel = self.tmin, self.tdel
        # ``policy`` is read per call: scenarios swap it after construction.
        policy = self.policy
        draw, rng = policy.delay, self.rng
        width = tdel - tmin if policy.unit_sample and delay is None else None
        raw = None if delay is None else float(delay)
        floors = self._floors
        round_ = getattr(payload, "round", None) if floors else None
        floor_of = floors.get if isinstance(round_, int) else None
        on_message = self.recorder.on_message if self._records_messages else None
        # The handler + args instead of a per-message closure.  deliver_time
        # >= now (tmin >= 0), so schedule_at's past clamp cannot apply.
        push, push_run, handler_of = sim.queue.push, sim.queue.push_run, self._handlers.get
        # deliver_time -> [(handler, envelope), ...], in first-occurrence order.
        runs = {} if width is None else None
        # tuple.__new__ is the namedtuple constructor minus its Python frame.
        next_id, new = self._msg_ids.__next__, tuple.__new__
        envelopes = []
        pruned = 0
        try:
            for dest in destinations:
                if delay is None:
                    raw = draw(sender, dest, payload, now, rng)
                if raw != raw:
                    raise ValueError("message delay is NaN")
                if width is not None:
                    deliver_time = now + (tmin + raw * width)
                else:
                    deliver_time = now + (tmin if raw < tmin else tdel if raw > tdel else raw)
                envelope = new(Envelope, (next_id(), sender, dest, payload, now, deliver_time))
                envelopes.append(envelope)
                if on_message is not None:
                    on_message(envelope)
                if floor_of is not None and round_ < floor_of(dest, 0):
                    pruned += 1
                elif runs is None:
                    push(deliver_time, handler_of(dest, _undeliverable), envelope)
                else:
                    run = runs.get(deliver_time)
                    if run is None:
                        runs[deliver_time] = run = []
                    run.append((handler_of(dest, _undeliverable), envelope))
        finally:
            # Once per call, and also when a destination raised part-way:
            # every msg_id issued is a message counted, every delivery queued.
            if runs:
                for deliver_time, run in runs.items():
                    push_run(deliver_time, run)
            count = len(envelopes)
            if count:
                self.pruned += pruned
                stats, kind = self.stats, type(payload).__name__
                stats.total_messages += count
                stats.messages_by_sender[sender] = stats.messages_by_sender.get(sender, 0) + count
                stats.messages_by_type[kind] = stats.messages_by_type.get(kind, 0) + count
        return envelopes

    def send(self, sender: int, dest: int, payload: object, delay: Optional[float] = None) -> Envelope:
        """Send ``payload`` from ``sender`` to ``dest``.

        ``delay`` may be supplied explicitly (used by adversarial senders that
        coordinate with the delay adversary); it is still clamped to the
        model's ``[tmin, tdel]`` window, so not even faulty processes can beat
        the minimum delay or exceed the delivery bound.
        """
        return self._emit(sender, (dest,), payload, delay)[0]

    def broadcast(self, sender: int, payload: object, include_self: bool = False) -> list[Envelope]:
        """Send ``payload`` to every registered process (excluding the sender by default)."""
        destinations = self._sorted_participants()
        if not include_self:
            destinations = [pid for pid in destinations if pid != sender]
        return self._emit(sender, destinations, payload)

    def multicast(self, sender: int, destinations: Iterable[int], payload: object) -> list[Envelope]:
        """Send ``payload`` to an explicit set of destinations (two-faced sends)."""
        return self._emit(sender, destinations, payload)


def _undeliverable(envelope: Envelope) -> None:
    """The delivery of a message sent to a pid with no registered handler."""
