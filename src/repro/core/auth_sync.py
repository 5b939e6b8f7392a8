"""The authenticated Srikanth-Toueg clock synchronization algorithm.

Resilience: tolerates up to ``f = ceil(n/2) - 1`` Byzantine processes
(``n > 2f``), the optimum achievable with signatures.

Protocol (for process ``p``, round ``k = 1, 2, ...``):

1. When ``p``'s logical clock reaches ``k * P`` and ``p`` has not yet
   supported round ``k``, it signs the statement ``RoundContent(k)`` and
   broadcasts the signature (message :class:`~repro.core.messages.SignedRound`).
2. When ``p`` holds valid round-``k`` signatures from ``f + 1`` **distinct**
   processes, it *accepts* round ``k``:

   * it sets its logical clock to ``k * P + alpha``,
   * it relays the accepting signature set to everyone
     (:class:`~repro.core.messages.SignatureBundle`), adding its own signature
     if it had not broadcast yet -- this relay is what bounds the spread of
     acceptance times among correct processes by one message delay,
   * it starts waiting for round ``k + 1`` (timer at logical ``(k+1) * P``).

Round ``0`` (optional start-up phase) uses the same machinery: a booting
process immediately signs and broadcasts round 0, and accepting round 0 sets
the clock to ``alpha``.

A *joiner* (late-starting or recovering process) runs the same code but stays
passive -- no broadcasts, no timers -- until its first acceptance, at which
point it adopts that round's clock value and participates normally.
"""

from __future__ import annotations

from ..broadcast.authenticated import SignatureTracker
from ..crypto.signatures import KeyStore, SecretKey
from .messages import RoundContent, SignatureBundle, SignedRound
from .params import SyncParams
from .process import ClockSyncProcess


class AuthSyncProcess(ClockSyncProcess):
    """A correct process running the authenticated synchronizer."""

    algorithm_name = "st-auth"

    def __init__(
        self,
        pid: int,
        params: SyncParams,
        keystore: KeyStore,
        secret_key: SecretKey,
        monotonic: bool = False,
        use_startup: bool = False,
        joiner: bool = False,
    ) -> None:
        super().__init__(pid, params, monotonic=monotonic, use_startup=use_startup, joiner=joiner)
        if secret_key.owner != pid:
            raise ValueError(
                f"process {pid} was given the secret key of process {secret_key.owner}"
            )
        self.keystore = keystore
        self.secret_key = secret_key
        self.tracker = SignatureTracker(
            keystore=keystore,
            threshold=params.f + 1,
            content_factory=RoundContent,
        )

    # -- protocol actions -------------------------------------------------------

    def announce_round(self, round_: int) -> None:
        """Sign round ``round_`` and broadcast the signature (at most once)."""
        if round_ in self.broadcast_rounds:
            return
        self.broadcast_rounds.add(round_)
        signature = self.tracker.add_own(round_, self.secret_key)
        self.broadcast(SignedRound(round=round_, signature=signature))
        # Our own signature might complete the threshold (e.g. n = 1 + 2f with
        # all f faulty processes having signed already).
        self.try_accept()

    def resend_support(self, round_: int) -> None:
        """Re-broadcast the previously created signature for ``round_`` (start-up retries)."""
        if round_ not in self.broadcast_rounds:
            self.announce_round(round_)
            return
        if self.tracker.has_signer(round_, self.pid):
            signature = next(
                s for s in self.tracker.signatures(round_) if s.signer == self.pid
            )
            self.broadcast(SignedRound(round=round_, signature=signature))

    def after_acceptance(self, round_: int) -> None:
        """Relay the acceptance proof so every correct process accepts within one delay."""
        if round_ not in self.broadcast_rounds:
            # Contribute our own signature as well, as the paper prescribes.
            self.broadcast_rounds.add(round_)
            self.tracker.add_own(round_, self.secret_key)
        proof = self.tracker.acceptance_proof(round_)
        self.broadcast(SignatureBundle(round=round_, signatures=proof))

    def on_round_advanced(self, new_round: int) -> None:
        self.tracker.set_floor(new_round)

    def pending_accepts(self) -> list[int]:
        minimum = self.current_round if self.current_round is not None else 0
        return self.tracker.reached_rounds(minimum_round=minimum)

    # -- message handling ----------------------------------------------------------

    def on_message(self, sender: int, payload: object) -> None:
        if isinstance(payload, SignedRound):
            if self.tracker.add(payload.round, payload.signature):
                self.try_accept_touched(payload.round)
        elif isinstance(payload, SignatureBundle):
            if self.tracker.add_many(payload.round, payload.signatures) > 0:
                self.try_accept_touched(payload.round)
        # Everything else (garbage, baseline messages, echo messages) is ignored.
