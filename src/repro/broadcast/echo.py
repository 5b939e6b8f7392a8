"""Non-authenticated broadcast primitive (the Srikanth-Toueg echo broadcast).

Without signatures, faulty processes could claim that other processes said
"it is time for round k".  The echo primitive prevents this with two message
types and two thresholds, requiring ``n > 3f``:

* a process *broadcasts* round ``k`` by sending ``(init, k)`` to everyone;
* on receiving ``(init, k)`` from ``f + 1`` distinct processes, a process
  sends ``(echo, k)`` to everyone (at most once per round);
* on receiving ``(echo, k)`` from ``f + 1`` distinct processes, a process also
  sends ``(echo, k)`` (if it has not yet);
* on receiving ``(echo, k)`` from ``2f + 1`` distinct processes, it *accepts*
  round ``k``.

Properties (with ``n > 3f``):

* *Unforgeability*: an echo requires ``f + 1`` inits or ``f + 1`` echoes, so
  the first correct echo requires an init from a correct process; acceptance
  requires ``2f + 1`` echoes of which at least ``f + 1`` are correct.
* *Relay*: if a correct process accepts at time ``t``, at least ``f + 1``
  correct processes echoed by ``t``; their echoes reach everyone by
  ``t + tdel``, causing every correct process to echo by then, so everyone has
  ``n - f >= 2f + 1`` echoes by ``t + 2*tdel``.
* *Correctness*: if all correct processes broadcast (init) by ``t``, everyone
  has ``f + 1`` inits by ``t + tdel`` and ``2f + 1`` echoes by ``t + 2*tdel``.

:class:`EchoTracker` is the pure state machine; the owning process performs
the actual sends.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..sim.adversary import TRACKER_LOOKAHEAD
from .primitive import NO_ACTIONS, BroadcastTracker, PrimitiveActions

#: ``_ACTIONS[send_echo][accept]``: the four decisions ``_evaluate`` returns, shared.
_ACTIONS = (
    (NO_ACTIONS, PrimitiveActions(accept=True)),
    (PrimitiveActions(send_echo=True), PrimitiveActions(send_echo=True, accept=True)),
)


@dataclass(slots=True)
class _RoundState:
    init_senders: set[int] = field(default_factory=set)
    echo_senders: set[int] = field(default_factory=set)
    echoed: bool = False
    accept_reported: bool = False


class EchoTracker(BroadcastTracker):
    """Per-round init/echo bookkeeping with thresholds ``f+1`` (echo) and ``2f+1`` (accept)."""

    def __init__(self, n: int, f: int, max_round_lookahead: Optional[int] = TRACKER_LOOKAHEAD) -> None:
        if n <= 0:
            raise ValueError(f"n must be positive, got {n}")
        if f < 0 or 3 * f >= n:
            raise ValueError(f"echo broadcast requires n > 3f, got n={n}, f={f}")
        self.n = n
        self.f = f
        self.echo_threshold = f + 1
        self.accept_threshold = 2 * f + 1
        self.max_round_lookahead = max_round_lookahead
        self._rounds: dict[int, _RoundState] = {}
        self._floor = 0

    # -- window management -----------------------------------------------------

    def set_floor(self, round_: int) -> None:
        """Ignore (and forget) all rounds strictly below ``round_``."""
        self._floor = max(self._floor, round_)
        for r in [r for r in self._rounds if r < self._floor]:
            del self._rounds[r]

    def _state_for(self, round_: int) -> Optional[_RoundState]:
        # A stored round is in the window: set_floor forgets those it leaves.
        state = self._rounds.get(round_)
        if state is None and self._within_window(round_):
            state = self._rounds[round_] = _RoundState()
        return state

    # -- recording ---------------------------------------------------------------

    def _evaluate(self, state: _RoundState) -> PrimitiveActions:
        send_echo = not state.echoed and (
            len(state.init_senders) >= self.echo_threshold
            or len(state.echo_senders) >= self.echo_threshold
        )
        accept = not state.accept_reported and len(state.echo_senders) >= self.accept_threshold
        if accept:
            state.accept_reported = True
        return _ACTIONS[send_echo][accept]

    def record_init(self, round_: int, sender: int) -> PrimitiveActions:
        """Record an ``(init, round)`` message from ``sender``."""
        state = self._state_for(round_)
        if state is None:
            return NO_ACTIONS
        state.init_senders.add(sender)
        return self._evaluate(state)

    def record_echo(self, round_: int, sender: int) -> PrimitiveActions:
        """Record an ``(echo, round)`` message from ``sender``."""
        state = self._state_for(round_)
        if state is None:
            return NO_ACTIONS
        state.echo_senders.add(sender)
        return self._evaluate(state)

    def note_own_init(self, round_: int, own_pid: int) -> PrimitiveActions:
        """Count the process's own init toward its thresholds."""
        return self.record_init(round_, own_pid)

    def note_own_echo(self, round_: int, own_pid: int) -> PrimitiveActions:
        """Count the process's own echo toward its thresholds and mark it as echoed."""
        state = self._state_for(round_)
        if state is None:
            return NO_ACTIONS
        state.echoed = True
        state.echo_senders.add(own_pid)
        return self._evaluate(state)

    def mark_echoed(self, round_: int) -> None:
        """Remember that an echo for ``round_`` has been sent (suppresses duplicates)."""
        state = self._state_for(round_)
        if state is not None:
            state.echoed = True

    def has_echoed(self, round_: int) -> bool:
        state = self._rounds.get(round_)
        return bool(state and state.echoed)

    # -- queries ---------------------------------------------------------------------

    def support(self, round_: int) -> int:
        state = self._rounds.get(round_)
        return len(state.echo_senders) if state else 0

    def init_support(self, round_: int) -> int:
        state = self._rounds.get(round_)
        return len(state.init_senders) if state else 0

    def reached(self, round_: int) -> bool:
        return self.support(round_) >= self.accept_threshold

    def rounds_with_support(self) -> list[int]:
        return sorted(r for r, s in self._rounds.items() if s.init_senders or s.echo_senders)

    def reached_rounds(self, minimum_round: int = 0) -> list[int]:
        """Rounds at or above ``minimum_round`` whose acceptance threshold is reached."""
        return sorted(r for r in self._rounds if r >= minimum_round and self.reached(r))
