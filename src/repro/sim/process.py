"""Framework-level process abstraction.

A :class:`Process` is an event-driven participant in a simulation.  It can

* read its hardware clock (but never real time -- honest algorithm code must
  only ever call :meth:`Process.local_time`),
* send point-to-point messages, broadcast, or multicast,
* set timers that fire when its *hardware clock* reaches a given value,
* react to three callbacks: :meth:`on_start`, :meth:`on_message` and
  :meth:`on_timer`.

Algorithm implementations (the Srikanth-Toueg synchronizers, the baselines,
and the Byzantine behaviours) all derive from this class.  Faulty processes
additionally get access to :attr:`Process.real_time` and to explicit delay
control because the adversary is allowed to know everything; honest
implementations must not touch those.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Hashable, Iterable, Optional

from .clocks import HardwareClock
from .events import CANCELLED
from .network import Envelope, Network
from .recorder import Recorder
from .trace import ProcessTrace, ResyncEvent

if TYPE_CHECKING:  # pragma: no cover
    from .engine import Simulation


class Timer:
    """Handle for a pending local-clock timer."""

    def __init__(self, key: Hashable, local_target: float, event: Optional[list]) -> None:
        self.key = key
        self.local_target = local_target
        self._event = event
        self.fired = False

    @property
    def cancelled(self) -> bool:
        return self._event[4] == CANCELLED

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Timer(key={self.key!r}, local_target={self.local_target!r}, fired={self.fired})"


class Process:
    """Base class for all simulated processes."""

    #: Whether this process counts as faulty for analysis purposes.
    faulty: bool = False

    def __init__(self, pid: int) -> None:
        self.pid = pid
        self._sim: Optional["Simulation"] = None
        self._network: Optional[Network] = None
        self._clock: Optional[HardwareClock] = None
        self._recorder: Optional[Recorder] = None
        self._timers: list[Timer] = []
        self._started = False
        self._halted = False

    # -- wiring (called by the engine) --------------------------------------

    def bind(
        self,
        sim: "Simulation",
        network: Network,
        clock: HardwareClock,
        recorder: Recorder,
    ) -> None:
        """Attach this process to a simulation; called by ``Simulation.add_process``."""
        self._sim = sim
        self._network = network
        self._clock = clock
        self._recorder = recorder
        network.register(self.pid, self._handle_envelope)

    @property
    def sim(self) -> "Simulation":
        if self._sim is None:
            raise RuntimeError(f"process {self.pid} is not bound to a simulation")
        return self._sim

    @property
    def network(self) -> Network:
        if self._network is None:
            raise RuntimeError(f"process {self.pid} is not bound to a network")
        return self._network

    @property
    def clock(self) -> HardwareClock:
        if self._clock is None:
            raise RuntimeError(f"process {self.pid} has no hardware clock")
        return self._clock

    @property
    def recorder(self) -> Recorder:
        if self._recorder is None:
            raise RuntimeError(f"process {self.pid} is not bound to a recorder")
        return self._recorder

    @property
    def trace(self) -> ProcessTrace:
        """This process's trace (only with a trace-keeping recorder)."""
        return self.recorder.process_trace(self.pid)

    @property
    def halted(self) -> bool:
        return self._halted

    # -- observation (emitted into the bound recorder) -----------------------

    def record_adjustment(self, time: float, adjustment: float) -> None:
        """Report that from real time ``time`` on, C(t) = H(t) + ``adjustment``."""
        self.recorder.on_adjustment(self.pid, time, adjustment)

    def record_resync(self, event: ResyncEvent) -> None:
        """Report a resynchronization (round acceptance) of this process."""
        self.recorder.on_resync(event)

    # -- environment available to algorithm code ----------------------------

    def local_time(self) -> float:
        """Current hardware-clock reading.  The only notion of time honest code may use."""
        return self.clock.read(self.sim.now)

    @property
    def real_time(self) -> float:
        """Current real time.  Only adversarial/faulty code and tests may use this."""
        return self.sim.now

    def peers(self) -> list[int]:
        """Ids of all processes attached to the network (including this one)."""
        return self.network.participants()

    def other_peers(self) -> list[int]:
        """Ids of all processes except this one."""
        return [pid for pid in self.peers() if pid != self.pid]

    def send(self, dest: int, payload: object, delay: Optional[float] = None) -> None:
        """Send a point-to-point message."""
        if self._halted:
            return
        self.network.send(self.pid, dest, payload, delay=delay)

    def broadcast(self, payload: object) -> None:
        """Send ``payload`` to every other process."""
        if self._halted:
            return
        self.network.broadcast(self.pid, payload)

    def multicast(self, destinations: Iterable[int], payload: object) -> None:
        """Send ``payload`` to an explicit subset of processes."""
        if self._halted:
            return
        self.network.multicast(self.pid, destinations, payload)

    def set_timer_local(self, local_target: float, key: Hashable = None) -> Timer:
        """Schedule :meth:`on_timer` for when the hardware clock reads ``local_target``.

        If the clock already reads ``local_target`` or more, the timer fires
        immediately (at the current simulation time).
        """
        real_target = self.clock.invert(local_target)
        real_target = max(real_target, self.sim.now)
        timer = Timer(key=key, local_target=local_target, event=None)
        timer._event = self.sim.schedule_at(real_target, self._fire_timer, timer)
        self._timers.append(timer)
        return timer

    def cancel_timer(self, timer: Timer) -> None:
        """Cancel a pending timer (no-op if it already fired)."""
        if not timer.fired:
            self.sim.cancel(timer._event)

    def cancel_all_timers(self) -> None:
        """Cancel every pending timer of this process."""
        for timer in self._timers:
            self.cancel_timer(timer)
        self._timers = [t for t in self._timers if not t.fired and not t.cancelled]

    def halt(self) -> None:
        """Stop participating: cancel timers and ignore all future deliveries."""
        self._halted = True
        self.cancel_all_timers()
        self.recorder.on_crash(self.pid, self.sim.now)

    # -- hooks for subclasses ------------------------------------------------

    def on_start(self) -> None:
        """Called once when the process boots."""

    def on_message(self, sender: int, payload: object) -> None:
        """Called when a message is delivered to this process."""

    def on_timer(self, key: Hashable) -> None:
        """Called when a timer set via :meth:`set_timer_local` fires."""

    # -- internal dispatch ----------------------------------------------------

    def _start(self) -> None:
        if self._started:
            return
        self._started = True
        self.on_start()

    def _fire_timer(self, timer: Timer) -> None:
        if self._halted or timer.cancelled:
            return
        timer.fired = True
        self._timers.remove(timer)
        self.on_timer(timer.key)

    def _handle_envelope(self, envelope: Envelope) -> None:
        if self._halted or not self._started:
            return
        self.on_message(envelope.sender, envelope.payload)
