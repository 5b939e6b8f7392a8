"""Wire-format message types used by the synchronization algorithms.

All messages are small frozen dataclasses so that they can be canonicalised
and signed (see :func:`repro.crypto.message_digest`), compared in tests, and
counted by type in the network statistics.

Round numbering convention
--------------------------
Round ``k >= 1`` corresponds to the resynchronization at logical time ``k*P``.
Round ``0`` is reserved for the start-up ("ready") phase: accepting round 0
means the system agreed to start, and processes set their logical clocks to
``alpha`` at that point.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..crypto.signatures import Signature


@dataclass(frozen=True)
class Message:
    """Common base class for all wire messages (useful for isinstance checks)."""


# -- authenticated algorithm ---------------------------------------------------


@dataclass(frozen=True)
class RoundContent(Message):
    """The content that gets signed for round ``k``: the statement "it is time for round k"."""

    round: int


@dataclass(frozen=True)
class SignedRound(Message):
    """A single signed round-k statement, as broadcast by its signer."""

    round: int
    signature: Signature


@dataclass(frozen=True)
class SignatureBundle(Message):
    """The relay message: the full set of signatures that caused an acceptance.

    Forwarding the accepted set is what gives the authenticated primitive its
    *relay* property -- every correct process accepts within one message delay
    of the first correct acceptance.
    """

    round: int
    signatures: tuple[Signature, ...]


# -- non-authenticated (echo) algorithm ---------------------------------------


@dataclass(frozen=True)
class InitMessage(Message):
    """"My clock reached round k" -- the non-authenticated broadcast of a round."""

    round: int


@dataclass(frozen=True)
class EchoMessage(Message):
    """Echo supporting round k, sent once f+1 inits or f+1 echoes were received."""

    round: int


# -- baseline algorithms --------------------------------------------------------


@dataclass(frozen=True)
class ClockSample(Message):
    """A baseline process announcing its logical clock value (Lamport/Melliar-Smith)."""

    round: int
    value: float


@dataclass(frozen=True)
class SyncPulse(Message):
    """A baseline process announcing that its logical clock reached round ``k`` (Lundelius-Welch)."""

    round: int


# -- adversarial / garbage messages --------------------------------------------


@dataclass(frozen=True)
class GarbageMessage(Message):
    """An arbitrary, meaningless message used by flooding adversaries."""

    blob: str
