"""Named adversary strategies.

A *strategy* turns the set of faulty process ids into concrete
:class:`~repro.sim.process.Process` instances (one per faulty id) given the
shared :class:`~repro.faults.behaviors.AdversaryContext`.  Which role each
faulty id plays under a named attack, and what a role does to its sends, is
stated once in :mod:`repro.sim.adversary`; this module only picks the object
that plays the role on the event loop.

Strategies within the resilience bound (the guarantees must survive them):

``silent``          faulty processes never send anything
``crash``           behave correctly, then crash mid-run
``eager``           support every round as early as possible
``two_faced``       participate correctly but only toward half of the honest processes
``alternating``     two-faced with the favoured half switching every round
``laggard``         participate correctly but always at the maximum allowed delay
``random_silence``  participate correctly but drop each own broadcast at random
``random_two_faced`` two-faced with the favoured half coin-flipped per broadcast
``random_laggard``  participate correctly with a random in-bounds delay per message
``forge_flood``     spam forged signatures, bogus proofs and garbage
``replay``          replay every observed message later
``skew_max``        eager support combined with two-faced sends (worst observed skew)

Strategies used only *above* the resilience bound (they are expected to break
the guarantees; experiments E3/E4 verify that they indeed do):

``rushing_cabal``   >= f+1 signers fabricate acceptance proofs (authenticated variant)
``echo_cabal``      >= f+1 echoers start echo avalanches (non-authenticated variant)
"""

from __future__ import annotations

from typing import Optional

from ..core.bounds import AUTH, ECHO
from ..crypto.signatures import KeyStore
from ..sim.adversary import ROLES, roles_for
from ..sim.process import Process
from .behaviors import (
    AdversaryContext,
    EagerEchoer,
    EagerSigner,
    EchoCabalMember,
    FaultyAuth,
    FaultyEcho,
    ForgeAndFlood,
    ReplayAttacker,
    RushingCabalLeader,
    SilentFaulty,
)

#: Strategies that the algorithms must tolerate (used by E1/E10 and the test suite).
TOLERATED_ATTACKS = (
    "silent",
    "crash",
    "eager",
    "two_faced",
    "alternating",
    "laggard",
    "random_silence",
    "random_two_faced",
    "random_laggard",
    "forge_flood",
    "replay",
    "skew_max",
)

#: Strategies that are only meaningful above the resilience threshold.
BREAKING_ATTACKS = ("rushing_cabal", "echo_cabal")

ALL_ATTACKS = TOLERATED_ATTACKS + BREAKING_ATTACKS

#: Roles that follow a script of their own instead of the protocol:
#: ``role -> (authenticated class, echo class)``, each built as ``cls(pid, context)``.
_SCRIPTED = {
    "silent": (SilentFaulty, SilentFaulty),
    "eager": (EagerSigner, EagerEchoer),
    "forge_flood": (ForgeAndFlood, ForgeAndFlood),
    "replay": (ReplayAttacker, ReplayAttacker),
    "rushing_cabal": (RushingCabalLeader, RushingCabalLeader),
    "echo_cabal": (EchoCabalMember, EchoCabalMember),
}


def available_attacks() -> list[str]:
    """Names of all adversary strategies."""
    return sorted(ALL_ATTACKS)


def _participant(pid: int, context: AdversaryContext, algorithm: str, keystore: Optional[KeyStore], role: str):
    """The process that runs ``algorithm`` honestly but sends by ``role``'s policy."""
    if algorithm == ECHO:
        return FaultyEcho(pid, context.params, context=context, role=role)
    if keystore is None:
        raise ValueError(
            f"faulty participant {pid} ({role}) of the authenticated algorithm needs a keystore to sign with"
        )
    return FaultyAuth(pid, context.params, keystore, keystore.secret_key(pid), context=context, role=role)


def make_faulty_processes(
    attack: Optional[str],
    context: AdversaryContext,
    algorithm: str = AUTH,
    keystore: Optional[KeyStore] = None,
) -> list[Process]:
    """Instantiate one faulty process per id in ``context.faulty_pids``."""
    if algorithm not in (AUTH, ECHO):
        raise ValueError(f"unknown algorithm {algorithm!r}")
    roles = roles_for(attack, context.faulty_pids)
    return [
        _participant(pid, context, algorithm, keystore, role)
        if ROLES[role].participant
        else _SCRIPTED[role][algorithm == ECHO](pid, context)
        for pid, role in roles.items()
    ]


def breaking_attack_for(algorithm: str) -> str:
    """The canonical above-threshold attack for the given algorithm."""
    return "rushing_cabal" if algorithm == AUTH else "echo_cabal"
