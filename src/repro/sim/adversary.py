"""The adversary, written once.

The paper's guarantees are quantified over every behaviour of up to ``f``
faulty processes, so the adversary is an *input* of a scenario: the same for
both algorithms and for every engine that executes it.  This module is the
only place that states it -- the constants, the fast / slow split of the
honest processes, which role each faulty pid plays under a named attack, and
what each role does to its sends -- and it imports nothing from ``repro``, so
the event loop's behaviour objects (:mod:`repro.faults`) and both vector
engines (:mod:`repro.sim.vectorized`) read the same table.

A **send policy** is a pure function ``policy(rng, tmin, tdel, peers,
current_round)`` called once per broadcast attempt of a faulty participant.
It returns ``None`` (the broadcast is dropped before it reaches the network)
or a plan ``(group, delays)``: ``group`` is :data:`ALL`, :data:`FAST` or
:data:`SLOW`; ``delays`` is ``None`` (the network's delay policy decides) or,
with :data:`ALL` only, one explicit delay per entry of ``peers`` (every other
process, ascending pid) -- explicit delays bypass the network's policy and
its RNG but still cross its ``[tmin, tdel]`` clamp.  ``rng`` is the role's
``Random(seed + pid)`` stream (``None`` for roles that do not draw).  The
body of a policy *is* its draw table: engines resolve the plan, they never
restate the draws.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional

#: ``EagerSigner`` / ``EagerEchoer`` support round ``k`` at real time
#: ``EAGER_FACTOR * k * P``, for rounds ``1 .. EAGER_MAX_ROUND``.
EAGER_FACTOR = 0.75
EAGER_MAX_ROUND = 200
#: A crashing participant halts at real time ``CRASH_PERIODS * P``.
CRASH_PERIODS = 2.5
#: ``ForgeAndFlood``'s tick interval and the ceiling of its round draw.
FLOOD_INTERVAL = 0.05
FLOOD_MAX_ROUND = 200
#: ``random_silence``'s per-broadcast drop probability and
#: ``random_two_faced``'s per-broadcast probability of favouring the fast group.
RANDOM_DROP_PROBABILITY = 0.5
RANDOM_FAST_BIAS = 0.5
#: Default ``max_round_lookahead`` of both broadcast trackers.
TRACKER_LOOKAHEAD = 1000

#: Destination groups a plan can name: every other process, or the honest
#: half the adversary favours / disfavours (an empty half means every honest
#: process).
ALL = "all"
FAST = "fast"
SLOW = "slow"


def split_groups(honest_pids) -> tuple[list[int], list[int]]:
    """The adversary's ``(fast, slow)`` split: the first half of the honest ids, and the rest."""
    honest_pids = list(honest_pids)
    half = max(1, len(honest_pids) // 2)
    return honest_pids[:half], honest_pids[half:]


def _two_faced(rng, tmin, tdel, peers, current_round):
    """No draws: only the favoured group ever hears from this process."""
    return FAST, None


def _alternating(rng, tmin, tdel, peers, current_round):
    """No draws: even rounds go to the favoured group, odd (or no) rounds to the other."""
    return (FAST if current_round is not None and current_round % 2 == 0 else SLOW), None


def _laggard(rng, tmin, tdel, peers, current_round):
    """No draws: every message takes the full delay bound."""
    return ALL, [tdel] * len(peers)


def _random_silence(rng, tmin, tdel, peers, current_round):
    """One ``random()`` per attempt, consumed whether or not the broadcast is sent."""
    return None if rng.random() < RANDOM_DROP_PROBABILITY else (ALL, None)


def _random_two_faced(rng, tmin, tdel, peers, current_round):
    """One ``random()`` per broadcast, before any network draw for the chosen group."""
    return (FAST if rng.random() < RANDOM_FAST_BIAS else SLOW), None


def _random_laggard(rng, tmin, tdel, peers, current_round):
    """One ``uniform(tmin, tdel)`` per peer, in ascending pid order."""
    return ALL, [rng.uniform(tmin, tdel) for _ in peers]


class Role(NamedTuple):
    """What one faulty process does under an attack."""

    #: Runs the honest protocol (timers, trackers, acceptances, relays);
    #: otherwise it follows its own script (or none) and is not a participant.
    participant: bool = False
    #: Halts at ``CRASH_PERIODS * P``.
    crashes: bool = False
    #: Its policy consumes a ``Random(seed + pid)`` stream.
    draws: bool = False
    #: Its policy returns the same plan for every broadcast (no draw, no round).
    static: bool = False
    #: The send policy; ``None`` sends as an honest process would.
    policy: Optional[Callable] = None


#: Every role a faulty pid can play, under the name of the attack that casts
#: it.  Scripted roles (not participants) are classes of their own in
#: :mod:`repro.faults.behaviors`; ``rushing_cabal`` is the cabal's leader.
ROLES = {
    "silent": Role(),
    "crash": Role(participant=True, crashes=True),
    "eager": Role(),
    "two_faced": Role(participant=True, static=True, policy=_two_faced),
    "alternating": Role(participant=True, policy=_alternating),
    "laggard": Role(participant=True, static=True, policy=_laggard),
    "random_silence": Role(participant=True, draws=True, policy=_random_silence),
    "random_two_faced": Role(participant=True, draws=True, policy=_random_two_faced),
    "random_laggard": Role(participant=True, draws=True, policy=_random_laggard),
    "forge_flood": Role(),
    "replay": Role(),
    "rushing_cabal": Role(),
    "echo_cabal": Role(),
}


def roles_for(attack: Optional[str], faulty_pids) -> dict[int, str]:
    """The role (a :data:`ROLES` key) of each faulty pid under ``attack``.

    Every faulty pid plays the role named like the attack (``None``, a
    benign run, keeps the faulty slots silent), except that ``skew_max``
    alternates eager supporters -- they accelerate acceptances -- with
    two-faced participants -- they starve half of the system -- and
    ``rushing_cabal`` has one leader, the lowest faulty pid, beside silent
    accomplices.
    """
    faulty_pids = list(faulty_pids)
    if attack == "skew_max":
        return {pid: ("eager", "two_faced")[index % 2] for index, pid in enumerate(faulty_pids)}
    if attack == "rushing_cabal":
        leader = min(faulty_pids, default=None)
        return {pid: attack if pid == leader else "silent" for pid in faulty_pids}
    role = "silent" if attack is None else attack
    if role not in ROLES:
        raise ValueError(f"unknown attack {attack!r}")
    return dict.fromkeys(faulty_pids, role)


def flood_draws(rng, honest_pids, max_round: int) -> tuple[int, int, int, int]:
    """One ``ForgeAndFlood`` tick's draws, in stream order.

    ``(victim, round, forgery guess, garbage tag)``: a ``choice`` over the
    honest pids, a ``randint(1, max_round)``, a ``getrandbits(32)`` and a
    ``getrandbits(16)``.
    """
    return rng.choice(honest_pids), rng.randint(1, max_round), rng.getrandbits(32), rng.getrandbits(16)
