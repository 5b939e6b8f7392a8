"""Shared machinery of all clock-synchronization processes.

:class:`ClockSyncProcess` extends the framework :class:`~repro.sim.process.Process`
with the notions every synchronizer needs:

* a :class:`~repro.core.clock.LogicalClock` and :meth:`logical_time`,
* logical-clock timers (fire when the *logical* clock reaches a target),
* :meth:`resynchronize_to`, which applies an adjustment and emits both the
  adjustment and a :class:`~repro.sim.trace.ResyncEvent` into the recorder,
* the three operating modes shared by the Srikanth-Toueg variants:

  - normal (round 1 scheduled at logical time ``P``),
  - start-up (round 0 is broadcast immediately at boot; accepting it starts
    the logical clock at ``alpha``),
  - joiner (fully passive until the first acceptance, then a normal member).
"""

from __future__ import annotations

from typing import Hashable, Optional

from ..sim.process import Process, Timer
from ..sim.trace import ResyncEvent
from .clock import LogicalClock
from .params import SyncParams


class ClockSyncProcess(Process):
    """Base class for every synchronization algorithm in this package."""

    #: Name used by reports; subclasses override.
    algorithm_name = "abstract"

    def __init__(
        self,
        pid: int,
        params: SyncParams,
        monotonic: bool = False,
        use_startup: bool = False,
        joiner: bool = False,
    ) -> None:
        super().__init__(pid)
        self.params = params
        self.monotonic = monotonic
        self.use_startup = use_startup
        self.joiner = joiner
        self.logical = LogicalClock()
        #: Next round this process is waiting to accept (None while a passive joiner).
        self.current_round: Optional[int] = None
        #: Rounds for which this process already broadcast its own support.
        self.broadcast_rounds: set[int] = set()
        #: Rounds this process accepted, in order.
        self.accepted_rounds: list[int] = []
        self._round_timer: Optional[Timer] = None

    # -- time ----------------------------------------------------------------------

    def logical_time(self) -> float:
        """Current logical clock value."""
        return self.logical.value(self.local_time())

    def set_logical_timer(self, logical_target: float, key: Hashable) -> Timer:
        """Set a timer that fires when the *logical* clock reaches ``logical_target``."""
        hardware_target = self.logical.hardware_target_for(logical_target)
        return self.set_timer_local(hardware_target, key=key)

    # -- resynchronization -----------------------------------------------------------

    def resynchronize_to(self, round_: int, logical_target: float) -> None:
        """Set the logical clock to ``logical_target`` and record the resynchronization."""
        now = self.sim.now
        reading = self.local_time()
        result = self.logical.set_to(logical_target, reading, monotonic=self.monotonic)
        self.record_adjustment(now, self.logical.adjustment)
        self.record_resync(
            ResyncEvent(
                pid=self.pid,
                round=round_,
                time=now,
                logical_before=result.before,
                logical_after=result.after,
            )
        )
        self.accepted_rounds.append(round_)

    # -- round scheduling --------------------------------------------------------------

    def schedule_round(self, round_: int) -> None:
        """(Re)arm the timer for broadcasting round ``round_``."""
        if self._round_timer is not None:
            self.cancel_timer(self._round_timer)
        target = self.params.round_logical_time(round_)
        self._round_timer = self.set_logical_timer(target, key=("round", round_))

    def first_round(self) -> int:
        """The first round this process participates in (0 with start-up, else 1)."""
        return 0 if self.use_startup else 1

    # -- hooks shared by both Srikanth-Toueg variants ------------------------------------

    def on_start(self) -> None:
        if self.joiner:
            # A joiner observes silently; its current_round stays None until it
            # accepts some round through the regular rule.
            self.current_round = None
            return
        self.current_round = self.first_round()
        if self.use_startup:
            # Round 0 is due immediately: announce readiness right away.  A
            # process that boots after its peers may have missed their round-0
            # messages (messages to a down node are lost), so it keeps
            # re-announcing until the system has started.
            self.announce_round(0)
            self._schedule_startup_retry()
        else:
            self.schedule_round(self.current_round)

    def _schedule_startup_retry(self) -> None:
        retry_interval = 4.0 * self.params.tdel * (1.0 + self.params.rho)
        self.set_timer_local(self.local_time() + retry_interval, key=("startup-retry",))

    def on_timer(self, key: Hashable) -> None:
        if not isinstance(key, tuple):
            return
        if key[0] == "startup-retry":
            if self.current_round == 0:
                self.resend_support(0)
                self._schedule_startup_retry()
            return
        if key[0] != "round":
            return
        round_ = key[1]
        if self.current_round is None or round_ != self.current_round:
            return
        self.announce_round(round_)

    # -- extension points ---------------------------------------------------------------

    def announce_round(self, round_: int) -> None:
        """Broadcast this process's support for ``round_`` (algorithm-specific)."""
        raise NotImplementedError

    def resend_support(self, round_: int) -> None:
        """Re-broadcast previously announced support (used by the start-up retry)."""
        raise NotImplementedError

    def accept_round(self, round_: int) -> None:
        """Handle acceptance of ``round_``: resynchronize and arm the next round."""
        logical_target = self.params.round_logical_time(round_) + self.params.alpha_value
        self.resynchronize_to(round_, logical_target)
        self.after_acceptance(round_)
        self.current_round = round_ + 1
        self.on_round_advanced(round_ + 1)
        if not self.faulty:
            # The tracker floor moved: the network may skip what is stale when
            # sent.  Behaviours may react to anything, so the faulty never publish.
            self.network.publish_floor(self.pid, round_ + 1)
        self.schedule_round(self.current_round)

    def after_acceptance(self, round_: int) -> None:
        """Algorithm-specific follow-up to an acceptance (e.g. relaying proofs)."""

    def on_round_advanced(self, new_round: int) -> None:
        """Called after ``current_round`` moved forward (used to garbage-collect trackers)."""

    # -- common acceptance loop ------------------------------------------------------------

    def pending_accepts(self) -> list[int]:
        """Rounds at or above ``current_round`` whose threshold has been reached."""
        raise NotImplementedError

    def try_accept_touched(self, round_: int) -> None:
        """:meth:`try_accept`, entered only if the round a message just touched can be pending.

        The **touched-round rule** (``docs/kernel.md``): every earlier tracker
        change ran :meth:`try_accept` to a fixpoint, so no other round can be
        newly reached; a passive joiner accepts whatever round is.
        """
        if (self.current_round is None or round_ >= self.current_round) and self.tracker.reached(round_):
            self.try_accept()

    def try_accept(self) -> None:
        """Accept every pending round in order (normally at most one)."""
        if self.halted:
            return
        if self.current_round is None:
            # Passive joiner: accept the highest reached round and become active.
            reached = self.pending_accepts()
            if not reached:
                return
            round_ = max(reached)
            self.accept_round(round_)
            return
        while True:
            reached = [r for r in self.pending_accepts() if r >= self.current_round]
            if not reached:
                return
            self.accept_round(min(reached))
