"""Authenticated broadcast primitive: acceptance by ``f + 1`` distinct signatures.

A process *broadcasts* round ``k`` by signing the statement
:class:`~repro.core.messages.RoundContent`\\ ``(k)`` and sending the signature
to everyone.  A process *accepts* round ``k`` once it holds valid signatures
on that statement from ``f + 1`` distinct processes; since at most ``f``
processes are faulty, at least one signature comes from a correct process, so
the primitive is unforgeable.  Upon acceptance the process forwards the whole
signature set (see :class:`~repro.core.messages.SignatureBundle`), which makes
every other correct process accept within one message delay -- the relay
property.  Correctness holds because with ``n > 2f`` there are at least
``f + 1`` correct processes whose own signatures reach everyone within one
delay of their broadcasts.

:class:`SignatureTracker` is the pure bookkeeping part: it validates and
deduplicates signatures per round and reports when the threshold is reached.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..crypto.signatures import KeyStore, SecretKey, Signature, message_digest, sign
from ..sim.adversary import TRACKER_LOOKAHEAD
from .primitive import BroadcastTracker


class SignatureTracker(BroadcastTracker):
    """Collects valid round-``k`` signatures from distinct signers.

    Parameters
    ----------
    keystore:
        The PKI used to verify signatures.
    threshold:
        Number of distinct signers required to accept (``f + 1``).
    content_factory:
        Callable mapping a round number to the signed content object.  It is
        injected so the same tracker can serve the start-up ("ready") phase.
    max_round_lookahead:
        Rounds further than this beyond the highest accepted round are
        dropped, bounding memory against flooding adversaries.  ``None``
        disables the cap.
    """

    def __init__(
        self,
        keystore: KeyStore,
        threshold: int,
        content_factory,
        max_round_lookahead: Optional[int] = TRACKER_LOOKAHEAD,
    ) -> None:
        if threshold <= 0:
            raise ValueError(f"threshold must be positive, got {threshold}")
        self.keystore = keystore
        self.threshold = threshold
        self.content_factory = content_factory
        self.max_round_lookahead = max_round_lookahead
        self._signatures: dict[int, dict[int, Signature]] = {}
        self._digests: dict[int, str] = {}  # in-window round -> its statement's digest
        self._floor = 0  # rounds below this are stale and ignored

    # -- recording -----------------------------------------------------------

    def set_floor(self, round_: int) -> None:
        """Ignore (and forget) all rounds strictly below ``round_``."""
        self._floor = max(self._floor, round_)
        for table in (self._signatures, self._digests):
            for r in [r for r in table if r < self._floor]:
                del table[r]

    def _digest(self, round_: int) -> str:
        """Round ``round_``'s statement digest, hashed once per round (``set_floor`` prunes it)."""
        digest = self._digests.get(round_)
        if digest is None:
            digest = self._digests[round_] = message_digest(self.content_factory(round_))
        return digest

    def _record(self, round_: int, digest: str, signature: Signature) -> bool:
        """Verify ``signature`` on the statement hashed to ``digest`` and record it if it is new."""
        if not self.keystore.verify_digest(signature, digest):
            return False
        per_round = self._signatures.setdefault(round_, {})
        if signature.signer in per_round:
            return False
        per_round[signature.signer] = signature
        return True

    def add(self, round_: int, signature: Signature) -> bool:
        """Record a received signature.  Returns True iff it was valid and new."""
        if not self._within_window(round_):
            return False
        return self._record(round_, self._digest(round_), signature)

    def add_own(self, round_: int, secret_key: SecretKey) -> Signature:
        """Sign round ``round_`` with ``secret_key`` and record the signature."""
        signature = sign(secret_key, self.content_factory(round_))
        self.add(round_, signature)
        return signature

    def add_many(self, round_: int, signatures: Iterable[Signature]) -> int:
        """Record a bundle of signatures; returns how many were valid and new.

        The round window is a property of the bundle, so it is checked once;
        every signature of an in-window bundle is still verified.
        """
        if not self._within_window(round_):
            return 0
        digest = self._digest(round_)
        return sum(1 for s in signatures if self._record(round_, digest, s))

    # -- queries --------------------------------------------------------------

    def support(self, round_: int) -> int:
        return len(self._signatures.get(round_, {}))

    def reached(self, round_: int) -> bool:
        return self.support(round_) >= self.threshold

    def signatures(self, round_: int) -> tuple[Signature, ...]:
        """All valid signatures recorded for ``round_``, ordered by signer id."""
        per_round = self._signatures.get(round_, {})
        return tuple(per_round[s] for s in sorted(per_round))

    def acceptance_proof(self, round_: int) -> tuple[Signature, ...]:
        """A minimal set of ``threshold`` signatures proving the acceptance of ``round_``."""
        sigs = self.signatures(round_)
        if len(sigs) < self.threshold:
            raise ValueError(f"round {round_} has only {len(sigs)} signatures, need {self.threshold}")
        return sigs[: self.threshold]

    def has_signer(self, round_: int, signer: int) -> bool:
        """Whether a valid signature by ``signer`` for ``round_`` was recorded."""
        return signer in self._signatures.get(round_, {})

    def rounds_with_support(self) -> list[int]:
        return sorted(r for r, sigs in self._signatures.items() if sigs)

    def reached_rounds(self, minimum_round: int = 0) -> list[int]:
        """Rounds at or above ``minimum_round`` whose threshold has been reached, sorted."""
        return sorted(
            r for r in self._signatures if r >= minimum_round and self.reached(r)
        )
