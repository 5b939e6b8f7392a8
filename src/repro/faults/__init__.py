"""Byzantine fault behaviours and named adversary strategies."""

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
from .strategies import (
    ALL_ATTACKS,
    BREAKING_ATTACKS,
    TOLERATED_ATTACKS,
    available_attacks,
    breaking_attack_for,
    make_faulty_processes,
)

__all__ = [
    "AdversaryContext",
    "SilentFaulty",
    "FaultyAuth",
    "FaultyEcho",
    "EagerSigner",
    "EagerEchoer",
    "ForgeAndFlood",
    "ReplayAttacker",
    "RushingCabalLeader",
    "EchoCabalMember",
    "TOLERATED_ATTACKS",
    "BREAKING_ATTACKS",
    "ALL_ATTACKS",
    "available_attacks",
    "make_faulty_processes",
    "breaking_attack_for",
]
