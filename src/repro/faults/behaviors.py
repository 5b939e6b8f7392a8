"""Byzantine fault behaviours.

The Srikanth-Toueg guarantees are quantified over *all* behaviours of up to
``f`` faulty processes.  A simulation can only ever exercise specific
behaviours, so this module provides a library of named attacks, from benign
(crash, silence) to actively malicious (early signing, two-faced sends,
forgery and flooding, replay) and, beyond the resilience threshold, attacks
that actually break the algorithms (the "cabal" behaviours used by the
resilience experiments E3/E4).

Faulty *participants* -- processes that run the honest protocol and only bend
their sends (crash, two-faced, laggard, the ``random_*`` family) -- are one
mixin, :class:`FaultyParticipant`, driven by the role table in
:mod:`repro.sim.adversary`; the scripted attackers are classes of their own.

All behaviours are ordinary :class:`~repro.sim.process.Process` subclasses
marked ``faulty = True``; being adversarial, they are allowed to read real
time, coordinate through shared :class:`AdversaryContext` state, and use the
secret keys of the *faulty* processes (but of course not of honest ones --
the signature simulation enforces that).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from ..core.auth_sync import AuthSyncProcess
from ..core.messages import (
    EchoMessage,
    GarbageMessage,
    InitMessage,
    RoundContent,
    SignatureBundle,
    SignedRound,
)
from ..core.params import SyncParams
from ..core.unauth_sync import EchoSyncProcess
from ..crypto.signatures import KeyStore, SecretKey, forge_attempt, sign
from ..sim.adversary import (
    ALL,
    CRASH_PERIODS,
    EAGER_FACTOR,
    EAGER_MAX_ROUND,
    FAST,
    FLOOD_INTERVAL,
    FLOOD_MAX_ROUND,
    ROLES,
    flood_draws,
    split_groups,
)
from ..sim.process import Process


@dataclass
class AdversaryContext:
    """Shared knowledge of the adversary controlling all faulty processes."""

    params: SyncParams
    faulty_pids: list[int]
    honest_pids: list[int]
    #: Honest processes the adversary favours (receives messages early / first).
    fast_group: list[int] = field(default_factory=list)
    #: Honest processes the adversary disfavours.
    slow_group: list[int] = field(default_factory=list)
    keystore: Optional[KeyStore] = None
    #: Secret keys of the faulty processes only.
    secret_keys: dict[int, SecretKey] = field(default_factory=dict)
    seed: int = 0

    @classmethod
    def build(
        cls,
        params: SyncParams,
        faulty_pids: list[int],
        honest_pids: list[int],
        keystore: Optional[KeyStore] = None,
        seed: int = 0,
    ) -> "AdversaryContext":
        """Create a context, splitting the honest processes into a fast and a slow group."""
        fast_group, slow_group = split_groups(honest_pids)
        secret_keys = {}
        if keystore is not None:
            secret_keys = {pid: keystore.secret_key(pid) for pid in faulty_pids if keystore.has_participant(pid)}
        return cls(
            params=params,
            faulty_pids=list(faulty_pids),
            honest_pids=list(honest_pids),
            fast_group=fast_group,
            slow_group=slow_group,
            keystore=keystore,
            secret_keys=secret_keys,
            seed=seed,
        )


class SilentFaulty(Process):
    """A faulty process that never sends anything (equivalent to an initial crash)."""

    faulty = True

    def __init__(self, pid: int, context: AdversaryContext) -> None:
        super().__init__(pid)
        self.context = context


class _EagerSupporter(Process):
    """Supports round ``k`` at real time ``early_factor * k * P``, for ``k = 1 .. rounds``."""

    faulty = True

    def __init__(
        self,
        pid: int,
        context: AdversaryContext,
        rounds: int = EAGER_MAX_ROUND,
        early_factor: float = EAGER_FACTOR,
    ) -> None:
        super().__init__(pid)
        self.context = context
        self.rounds = rounds
        self.early_factor = early_factor


class EagerSigner(_EagerSupporter):
    """Signs and broadcasts every round as early as it plausibly can (authenticated).

    The goal is to accelerate acceptances: honest processes still need one
    honest signature, so the attack pushes every acceptance to the earliest
    honest broadcast, maximising the spread between fast- and slow-clock
    honest processes.  Combined with a targeted delay policy this is the
    canonical skew-maximising adversary within the resilience bound.
    """

    def on_start(self) -> None:
        """Schedule one early signature per round (nothing without this pid's key)."""
        secret = self.context.secret_keys.get(self.pid)
        if secret is None:
            return
        period = self.context.params.period
        for k in range(1, self.rounds + 1):
            when = max(0.0, self.early_factor * k * period)
            self.sim.schedule_at(when, lambda k=k, s=secret: self._sign_round(k, s))

    def _sign_round(self, round_: int, secret: SecretKey) -> None:
        if self.halted:
            return
        signature = sign(secret, RoundContent(round_))
        self.broadcast(SignedRound(round=round_, signature=signature))


class EagerEchoer(_EagerSupporter):
    """Sends init and echo messages for every round as early as possible (echo variant)."""

    def on_start(self) -> None:
        """Schedule one early init + echo per round."""
        period = self.context.params.period
        for k in range(1, self.rounds + 1):
            when = max(0.0, self.early_factor * k * period)
            self.sim.schedule_at(when, lambda k=k: self._push_round(k))

    def _push_round(self, round_: int) -> None:
        if self.halted:
            return
        self.broadcast(InitMessage(round=round_))
        self.broadcast(EchoMessage(round=round_))


class FaultyParticipant:
    """A faulty process that runs the honest protocol but sends by its role's policy.

    A mixin in front of :class:`~repro.core.auth_sync.AuthSyncProcess` /
    :class:`~repro.core.unauth_sync.EchoSyncProcess`: timers, trackers,
    acceptances and relays are the honest ones; every ``broadcast`` asks the
    role's send policy (:data:`repro.sim.adversary.ROLES`) what to do with it,
    and a crashing role halts at ``CRASH_PERIODS * P``.  Drawing roles own a
    ``Random(context.seed + pid)`` stream, which the vector kernel replays.
    """

    faulty = True

    def __init__(self, *args, context: AdversaryContext, role: str, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.context = context
        self.role = role
        entry = ROLES[role]
        self._policy = entry.policy
        self._rng = random.Random(context.seed + self.pid) if entry.draws else None
        self.crash_time = CRASH_PERIODS * context.params.period if entry.crashes else None

    def on_start(self) -> None:
        """Boot as the honest protocol does, then schedule the role's crash (if any)."""
        self._peers = self.other_peers()  # every process is attached before the run starts
        super().on_start()
        if self.crash_time is not None:
            self.sim.schedule_at(self.crash_time, self.halt)

    def broadcast(self, payload: object) -> None:  # type: ignore[override]
        """Send ``payload`` the way the role's policy plans this attempt."""
        if self.halted:
            return
        if self._policy is None:
            super().broadcast(payload)
            return
        plan = self._policy(self._rng, self.params.tmin, self.params.tdel, self._peers, self.current_round)
        if plan is None:
            return
        group, delays = plan
        if delays is not None:
            for pid, delay in zip(self._peers, delays):
                self.send(pid, payload, delay=delay)
        elif group == ALL:
            super().broadcast(payload)
        else:
            context = self.context
            chosen = context.fast_group if group == FAST else context.slow_group
            self.multicast(chosen or context.honest_pids, payload)


class FaultyAuth(FaultyParticipant, AuthSyncProcess):
    """A faulty participant of the authenticated algorithm (it signs with its own key)."""


class FaultyEcho(FaultyParticipant, EchoSyncProcess):
    """A faulty participant of the echo-broadcast algorithm."""


class ForgeAndFlood(Process):
    """Broadcasts forged honest signatures, bogus bundles and garbage at a steady rate.

    None of it should have any effect: forged signatures fail verification and
    garbage messages are ignored.  This behaviour exists to validate input
    hardening and to measure that the honest algorithms' guarantees are
    unaffected by junk traffic.
    """

    faulty = True

    def __init__(
        self,
        pid: int,
        context: AdversaryContext,
        interval: float = FLOOD_INTERVAL,
        rounds: int = FLOOD_MAX_ROUND,
    ) -> None:
        super().__init__(pid)
        self.context = context
        self.interval = interval
        self.rounds = rounds
        self._rng = random.Random(context.seed + pid)

    def on_start(self) -> None:
        """Schedule the first flood tick."""
        self.sim.schedule_after(self.interval, self._flood)

    def _flood(self) -> None:
        if self.halted:
            return
        victim, round_, guess, tag = flood_draws(self._rng, self.context.honest_pids, self.rounds)
        forged = forge_attempt(victim, RoundContent(round_), guess=guess)
        self.broadcast(SignedRound(round=round_, signature=forged))
        self.broadcast(SignatureBundle(round=round_, signatures=(forged,)))
        self.broadcast(GarbageMessage(blob=f"junk-{tag}"))
        self.broadcast(InitMessage(round=round_))
        self.sim.schedule_after(self.interval, self._flood)


class ReplayAttacker(Process):
    """Records honest messages and replays them later (stale rounds, duplicates).

    Replayed signatures are genuine, so the only defence is the round floor in
    the trackers: stale rounds are ignored and duplicates change nothing.
    """

    faulty = True

    def __init__(
        self,
        pid: int,
        context: AdversaryContext,
        replay_delay: float = 0.5,
        max_replays: int = 500,
    ) -> None:
        super().__init__(pid)
        self.context = context
        self.replay_delay = replay_delay
        self.max_replays = max_replays
        self._replayed = 0

    def on_message(self, sender: int, payload: object) -> None:
        """Record an honest protocol message for replay ``replay_delay`` later."""
        # Only honest traffic is interesting to replay; replaying other faulty
        # nodes' (possibly replayed) messages would just amplify noise without
        # adding adversarial power, so the cap below also keeps the attack
        # from flooding the simulation with exponentially many copies.
        if sender in self.context.faulty_pids:
            return
        if self._replayed >= self.max_replays:
            return
        if isinstance(payload, (SignedRound, SignatureBundle, InitMessage, EchoMessage)):
            self._replayed += 1
            self.sim.schedule_after(self.replay_delay, lambda p=payload: self._replay(p))

    def _replay(self, payload: object) -> None:
        if not self.halted:
            self.broadcast(payload)


class RushingCabalLeader(Process):
    """Breaks the authenticated algorithm when the cabal has at least ``f + 1`` members.

    With ``f + 1`` colluding signers the cabal can fabricate complete
    acceptance proofs for arbitrary rounds without any honest participation
    (unforgeability no longer bites).  At ``attack_time`` the leader sends
    proofs for rounds ``1 .. pump_rounds`` to the favoured group only, driving
    their clocks forward by ``pump_rounds * P`` essentially instantly, while
    the disfavoured group only catches up through honest relays one delay
    later -- a skew far beyond the bound, demonstrating that ``n > 2f`` is
    necessary.
    """

    faulty = True

    def __init__(self, pid: int, context: AdversaryContext, attack_time: float = 0.1, pump_rounds: int = 25) -> None:
        super().__init__(pid)
        self.context = context
        self.attack_time = attack_time
        self.pump_rounds = pump_rounds

    def on_start(self) -> None:
        """Schedule the attack."""
        self.sim.schedule_at(self.attack_time, self._attack)

    def _attack(self) -> None:
        if self.halted:
            return
        secrets = list(self.context.secret_keys.values())
        threshold = self.context.params.f + 1
        if len(secrets) < threshold:
            return  # not enough colluders to forge an acceptance proof
        for k in range(1, self.pump_rounds + 1):
            content = RoundContent(k)
            signatures = tuple(sign(secret, content) for secret in secrets[:threshold])
            bundle = SignatureBundle(round=k, signatures=signatures)
            self.multicast(self.context.fast_group, bundle)


class EchoCabalMember(Process):
    """Breaks the non-authenticated algorithm when the cabal has at least ``f + 1`` members.

    ``f + 1`` colluding echoes clear the honest echo threshold, so the cabal
    can start an avalanche of echoes for arbitrary rounds with no honest init.
    All members send inits and echoes for rounds ``1 .. pump_rounds`` to the
    favoured group at ``attack_time``.
    """

    faulty = True

    def __init__(self, pid: int, context: AdversaryContext, attack_time: float = 0.1, pump_rounds: int = 25) -> None:
        super().__init__(pid)
        self.context = context
        self.attack_time = attack_time
        self.pump_rounds = pump_rounds

    def on_start(self) -> None:
        """Schedule the attack."""
        self.sim.schedule_at(self.attack_time, self._attack)

    def _attack(self) -> None:
        if self.halted:
            return
        for k in range(1, self.pump_rounds + 1):
            self.multicast(self.context.fast_group, InitMessage(round=k))
            self.multicast(self.context.fast_group, EchoMessage(round=k))
