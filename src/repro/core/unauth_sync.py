"""The non-authenticated Srikanth-Toueg clock synchronization algorithm.

Resilience: tolerates up to ``f = ceil(n/3) - 1`` Byzantine processes
(``n > 3f``) -- the optimum achievable without authentication.

The algorithm is the same two-step pattern as the authenticated variant, but
"broadcasting round k" and "accepting round k" go through the echo broadcast
primitive (:mod:`repro.broadcast.echo`) instead of signatures:

1. When the logical clock reaches ``k * P``: send ``(init, k)`` to everyone.
2. On ``f + 1`` distinct inits or ``f + 1`` distinct echoes for round ``k``:
   send ``(echo, k)`` to everyone (once).
3. On ``2f + 1`` distinct echoes for round ``k``: *accept* round ``k`` -- set
   the logical clock to ``k * P + alpha`` and start waiting for ``k + 1``.

Acceptance spreads among correct processes within ``2 * tdel`` (one hop for
the ``f + 1`` correct echoes behind the first acceptance to arrive, one hop
for the remaining correct processes' echoes), which is why the analytic
bounds in :mod:`repro.core.bounds` use ``SIGMA = 2 * tdel`` for this variant.

Round 0 (start-up) and the passive joiner mode work exactly as in the
authenticated variant.
"""

from __future__ import annotations

from ..broadcast.echo import EchoTracker
from ..broadcast.primitive import PrimitiveActions
from .messages import EchoMessage, InitMessage
from .params import SyncParams
from .process import ClockSyncProcess


class EchoSyncProcess(ClockSyncProcess):
    """A correct process running the non-authenticated (echo) synchronizer."""

    algorithm_name = "st-echo"

    def __init__(
        self,
        pid: int,
        params: SyncParams,
        monotonic: bool = False,
        use_startup: bool = False,
        joiner: bool = False,
    ) -> None:
        super().__init__(pid, params, monotonic=monotonic, use_startup=use_startup, joiner=joiner)
        self.tracker = EchoTracker(n=params.n, f=params.f)

    # -- protocol actions ---------------------------------------------------------

    def announce_round(self, round_: int) -> None:
        """Send ``(init, round)`` to everyone (at most once per round)."""
        if round_ in self.broadcast_rounds:
            return
        self.broadcast_rounds.add(round_)
        self.broadcast(InitMessage(round=round_))
        actions = self.tracker.note_own_init(round_, self.pid)
        self._apply_actions(round_, actions)

    def resend_support(self, round_: int) -> None:
        """Re-broadcast the init (and echo, if already sent) for ``round_`` (start-up retries)."""
        if round_ not in self.broadcast_rounds:
            self.announce_round(round_)
            return
        self.broadcast(InitMessage(round=round_))
        if self.tracker.has_echoed(round_):
            self.broadcast(EchoMessage(round=round_))

    def after_acceptance(self, round_: int) -> None:
        # The relay property is provided by the echo mechanism itself: the
        # 2f+1 echoes that caused this acceptance were sent to everyone.
        # Nothing extra to do.
        return

    def on_round_advanced(self, new_round: int) -> None:
        self.tracker.set_floor(new_round)

    def pending_accepts(self) -> list[int]:
        minimum = self.current_round if self.current_round is not None else 0
        return self.tracker.reached_rounds(minimum_round=minimum)

    # -- echo plumbing -------------------------------------------------------------

    def _send_echo(self, round_: int) -> None:
        if self.tracker.has_echoed(round_):
            return
        # A passive joiner only listens; it still accepts on 2f+1 echoes from
        # others (n - f >= 2f + 1 correct processes echo regardless).
        if self.joiner and self.current_round is None:
            return
        self.broadcast(EchoMessage(round=round_))
        actions = self.tracker.note_own_echo(round_, self.pid)
        self._apply_actions(round_, actions)

    def _apply_actions(self, round_: int, actions: PrimitiveActions) -> None:
        if actions.send_echo:
            self._send_echo(round_)
        if actions.accept:
            self.try_accept_touched(round_)

    # -- message handling -------------------------------------------------------------

    def on_message(self, sender: int, payload: object) -> None:
        if isinstance(payload, InitMessage):
            actions = self.tracker.record_init(payload.round, sender)
            self._apply_actions(payload.round, actions)
        elif isinstance(payload, EchoMessage):
            actions = self.tracker.record_echo(payload.round, sender)
            self._apply_actions(payload.round, actions)
        # Everything else is ignored.
