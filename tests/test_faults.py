"""Unit tests for the Byzantine behaviours, the adversary table and the strategies."""

from __future__ import annotations

import random

import pytest

from repro.core.bounds import AUTH, ECHO
from repro.core.messages import EchoMessage, InitMessage, SignatureBundle, SignedRound
from repro.core.params import params_for
from repro.crypto.signatures import KeyStore
from repro.faults.behaviors import (
    AdversaryContext,
    EagerEchoer,
    EagerSigner,
    EchoCabalMember,
    FaultyAuth,
    ForgeAndFlood,
    ReplayAttacker,
    RushingCabalLeader,
    SilentFaulty,
)
from repro.faults.strategies import (
    ALL_ATTACKS,
    available_attacks,
    breaking_attack_for,
    make_faulty_processes,
)
from repro.sim import adversary, kernel
from repro.sim.adversary import ALL, FAST, ROLES, SLOW, roles_for
from repro.sim.clocks import FixedRateClock
from repro.sim.engine import Simulation
from repro.sim.network import FixedDelay


def make_context(n=5, f=2, with_keys=True, seed=0):
    params = params_for(n, f=f, rho=1e-4, tdel=0.01, period=1.0)
    keystore = KeyStore.generate(n, seed=seed) if with_keys else None
    faulty = list(range(n - f, n))
    honest = list(range(n - f))
    context = AdversaryContext.build(params, faulty_pids=faulty, honest_pids=honest, keystore=keystore, seed=seed)
    return params, keystore, context


def make_sim_with_sinks(n=5, tdel=0.01):
    sim = Simulation(tmin=0.0, tdel=tdel, delay_policy=FixedDelay(0.001), seed=0)
    received = {pid: [] for pid in range(n)}
    return sim, received


def attach_sinks(sim, received, pids):
    for pid in pids:
        sim.network.register(pid, lambda env, pid=pid: received[env.dest].append(env.payload))


def test_context_build_splits_fast_and_slow_groups():
    _, _, context = make_context(n=7, f=3)
    assert set(context.fast_group) | set(context.slow_group) == set(context.honest_pids)
    assert set(context.fast_group).isdisjoint(context.slow_group)
    assert len(context.fast_group) >= 1


def test_context_collects_only_faulty_secret_keys():
    params, keystore, context = make_context(n=5, f=2)
    assert set(context.secret_keys) == {3, 4}


def test_silent_faulty_sends_nothing():
    params, keystore, context = make_context()
    sim, received = make_sim_with_sinks()
    attach_sinks(sim, received, range(3))
    sim.add_process(SilentFaulty(4, context), FixedRateClock(), faulty=True)
    sim.run_until(2.0)
    assert all(len(v) == 0 for v in received.values())
    assert sim.network.stats.total_messages == 0


def test_eager_signer_broadcasts_valid_early_signatures():
    params, keystore, context = make_context()
    sim, received = make_sim_with_sinks()
    attach_sinks(sim, received, range(3))
    sim.add_process(EagerSigner(4, context, rounds=3), FixedRateClock(), faulty=True)
    sim.run_until(1.0)
    msgs = [m for m in received[0] if isinstance(m, SignedRound)]
    assert {m.round for m in msgs} == {1}
    from repro.core.messages import RoundContent

    assert all(keystore.verify(m.signature, RoundContent(m.round), claimed_signer=4) for m in msgs)
    # Round-1 signatures arrive before real time 1.0 * 0.9: they are "early".
    assert sim.now <= 1.0


def test_eager_signer_without_key_stays_silent():
    params, _, context = make_context(with_keys=False)
    sim, received = make_sim_with_sinks()
    attach_sinks(sim, received, range(3))
    sim.add_process(EagerSigner(4, context, rounds=3), FixedRateClock(), faulty=True)
    sim.run_until(1.0)
    assert all(len(v) == 0 for v in received.values())


def test_eager_echoer_sends_inits_and_echoes():
    params, _, context = make_context(with_keys=False)
    sim, received = make_sim_with_sinks()
    attach_sinks(sim, received, range(3))
    sim.add_process(EagerEchoer(4, context, rounds=2), FixedRateClock(), faulty=True)
    sim.run_until(2.0)
    kinds = {type(m) for m in received[1]}
    assert InitMessage in kinds and EchoMessage in kinds


def test_two_faced_auth_only_talks_to_fast_group():
    params, keystore, context = make_context(n=5, f=1)
    sim, received = make_sim_with_sinks()
    attach_sinks(sim, received, range(4))
    proc = FaultyAuth(4, params, keystore, keystore.secret_key(4), context=context, role="two_faced")
    sim.add_process(proc, FixedRateClock(), faulty=True)
    sim.run_until(1.2)
    for pid in context.fast_group:
        assert any(isinstance(m, SignedRound) for m in received[pid])
    for pid in context.slow_group:
        assert not any(isinstance(m, SignedRound) for m in received[pid])


def test_forge_and_flood_produces_traffic_that_never_verifies():
    params, keystore, context = make_context()
    sim, received = make_sim_with_sinks()
    attach_sinks(sim, received, range(3))
    sim.add_process(ForgeAndFlood(4, context, interval=0.05), FixedRateClock(), faulty=True)
    sim.run_until(0.5)
    signed = [m for m in received[0] if isinstance(m, SignedRound)]
    assert signed  # it does flood
    from repro.core.messages import RoundContent

    assert all(not keystore.verify(m.signature, RoundContent(m.round)) for m in signed)


def test_replay_attacker_rebroadcasts_observed_messages():
    params, keystore, context = make_context()
    sim, received = make_sim_with_sinks()
    attach_sinks(sim, received, range(3))
    replayer = ReplayAttacker(4, context, replay_delay=0.1)
    sim.add_process(replayer, FixedRateClock(), faulty=True)
    original = InitMessage(round=7)
    sim.schedule_at(0.05, lambda: sim.network.send(0, 4, original))
    sim.run_until(0.5)
    assert any(m == original for m in received[1])


def test_rushing_cabal_fabricates_valid_proofs_with_enough_keys():
    # The cabal only works above the resilience threshold: the algorithm assumes
    # f = 2 but f + 1 = 3 processes actually collude.
    params = params_for(6, f=2, rho=1e-4, tdel=0.01, period=1.0)
    keystore = KeyStore.generate(6, seed=0)
    context = AdversaryContext.build(params, faulty_pids=[3, 4, 5], honest_pids=[0, 1, 2], keystore=keystore)
    sim, received = make_sim_with_sinks(n=6)
    attach_sinks(sim, received, range(3))
    leader = RushingCabalLeader(4, context, attack_time=0.1, pump_rounds=3)
    sim.add_process(leader, FixedRateClock(), faulty=True)
    sim.run_until(0.5)
    from repro.core.messages import RoundContent

    bundles = [m for m in received[context.fast_group[0]] if isinstance(m, SignatureBundle)]
    assert {b.round for b in bundles} == {1, 2, 3}
    for bundle in bundles:
        assert len(bundle.signatures) == params.f + 1
        assert all(keystore.verify(s, RoundContent(bundle.round)) for s in bundle.signatures)
    # The slow group receives nothing from the cabal directly.
    for pid in context.slow_group:
        assert not any(isinstance(m, SignatureBundle) for m in received[pid])


def test_rushing_cabal_without_enough_keys_does_nothing():
    params, keystore, context = make_context(n=5, f=2)
    context.secret_keys.pop(max(context.secret_keys))  # only one key left < f+1
    sim, received = make_sim_with_sinks()
    attach_sinks(sim, received, range(3))
    sim.add_process(RushingCabalLeader(4, context, attack_time=0.1), FixedRateClock(), faulty=True)
    sim.run_until(0.5)
    assert all(len(v) == 0 for v in received.values())


def test_echo_cabal_pumps_inits_and_echoes_to_fast_group():
    params, _, context = make_context(n=7, f=2, with_keys=False)
    sim, received = make_sim_with_sinks(n=7)
    attach_sinks(sim, received, range(5))
    member = EchoCabalMember(6, context, attack_time=0.1, pump_rounds=2)
    sim.add_process(member, FixedRateClock(), faulty=True)
    sim.run_until(0.5)
    fast = context.fast_group[0]
    assert any(isinstance(m, EchoMessage) and m.round == 2 for m in received[fast])
    for pid in context.slow_group:
        assert len(received[pid]) == 0


# -- strategy registry --------------------------------------------------------------------


def test_available_attacks_contains_all_registered():
    names = available_attacks()
    for attack in ALL_ATTACKS:
        assert attack in names


def test_make_faulty_processes_unknown_attack_rejected():
    params, keystore, context = make_context()
    with pytest.raises(ValueError):
        make_faulty_processes("not-an-attack", context, AUTH, keystore)


def test_make_faulty_processes_unknown_algorithm_rejected():
    params, keystore, context = make_context()
    with pytest.raises(ValueError):
        make_faulty_processes("eager", context, "bogus", keystore)


@pytest.mark.parametrize("attack", list(ALL_ATTACKS))
@pytest.mark.parametrize("algorithm", [AUTH, ECHO])
def test_every_attack_instantiates_one_process_per_faulty_pid(attack, algorithm):
    params, keystore, context = make_context(n=7, f=2)
    processes = make_faulty_processes(attack, context, algorithm, keystore)
    assert [p.pid for p in processes] == context.faulty_pids
    assert all(p.faulty for p in processes)


def test_breaking_attack_for_each_algorithm():
    assert breaking_attack_for(AUTH) == "rushing_cabal"
    assert breaking_attack_for(ECHO) == "echo_cabal"


PARTICIPANT_ROLES = [name for name, role in ROLES.items() if role.participant]


@pytest.mark.parametrize("role", PARTICIPANT_ROLES)
def test_authenticated_participant_without_keystore_is_refused(role):
    """It used to become an echo process inside the authenticated cluster, without a word."""
    attack = role  # every participant role is an attack of the same name
    params, _, context = make_context(n=7, f=2, with_keys=False)
    with pytest.raises(ValueError, match=r"participant 5 .*keystore"):
        make_faulty_processes(attack, context, AUTH, keystore=None)
    echo = make_faulty_processes(attack, context, ECHO, keystore=None)
    assert [p.pid for p in echo] == context.faulty_pids


# -- the adversary table ----------------------------------------------------------------------


def test_every_attack_resolves_to_table_roles_in_faulty_pid_order():
    faulty = [4, 5, 6, 7]
    for attack in (None, *ALL_ATTACKS):
        roles = roles_for(attack, faulty)
        assert list(roles) == faulty
        assert set(roles.values()) <= set(ROLES)
    assert list(roles_for("skew_max", faulty).values()) == ["eager", "two_faced", "eager", "two_faced"]
    assert roles_for("rushing_cabal", [6, 4, 5]) == {6: "silent", 4: "rushing_cabal", 5: "silent"}
    assert roles_for(None, faulty) == roles_for("silent", faulty)
    assert roles_for("echo_cabal", []) == {}
    with pytest.raises(ValueError):
        roles_for("inflated_clock", faulty)  # a baseline's adversary, not a Srikanth-Toueg role


def test_role_flags_are_consistent():
    for name, role in ROLES.items():
        if role.policy is None:
            assert not (role.draws or role.static), name
        else:
            assert role.participant and not (role.draws and role.static), name
        assert role.participant or not role.crashes, name


def test_every_kernel_eligible_attack_resolves_to_roles_the_layout_serves():
    """One assertion for what were three hand-kept lists (whitelist, roles, actors)."""
    np = kernel.numpy_or_none()
    if np is None:
        pytest.skip("numpy not installed")
    from repro.sim.vectorized import _Layout
    from repro.workloads.scenarios import Scenario

    params = params_for(9, f=2, rho=1e-4, tdel=0.01, period=1.0)
    for attack in sorted(a for a in kernel.ELIGIBLE_ATTACKS if a is not None):
        for algorithm in ("auth", "echo"):
            layout = _Layout(Scenario(params=params, algorithm=algorithm, attack=attack), np)
            roles = roles_for(attack, range(layout.h, layout.n))
            served = set(layout.actor_pids) | set(layout.eager_pids) | set(layout.flood_pids)
            for pid, role in roles.items():
                assert (pid in served) != (role == "silent"), (attack, pid, role)
                assert (pid in layout.actor_pids) == ROLES[role].participant
                assert (pid in layout.policies) == (ROLES[role].policy is not None and not ROLES[role].static)


class CountingRandom(random.Random):
    """Counts the stream draws a policy makes."""

    def __init__(self, seed):
        super().__init__(seed)
        self.draws = 0

    def random(self):
        self.draws += 1
        return super().random()


def ask(role, current_round=1, peers=(0, 1, 2, 4), seed=3):
    rng = CountingRandom(seed) if ROLES[role].draws else None
    plan = ROLES[role].policy(rng, 0.002, 0.01, list(peers), current_round)
    return plan, (rng.draws if rng is not None else 0)


def test_static_policies_draw_nothing():
    assert ask("two_faced") == ((FAST, None), 0)
    assert ask("laggard") == ((ALL, [0.01] * 4), 0)


def test_alternating_policy_follows_the_round_parity():
    assert ask("alternating", current_round=None) == ((SLOW, None), 0)
    assert ask("alternating", current_round=1) == ((SLOW, None), 0)
    assert ask("alternating", current_round=2) == ((FAST, None), 0)


def test_random_silence_draws_once_whether_or_not_it_sends():
    plans = set()
    for seed in range(20):
        plan, draws = ask("random_silence", seed=seed)
        assert draws == 1
        assert plan == (None if random.Random(seed).random() < adversary.RANDOM_DROP_PROBABILITY else (ALL, None))
        plans.add(plan)
    assert plans == {None, (ALL, None)}


def test_random_two_faced_draws_its_bias_once():
    groups = set()
    for seed in range(20):
        (group, delays), draws = ask("random_two_faced", seed=seed)
        assert draws == 1 and delays is None
        assert group == (FAST if random.Random(seed).random() < adversary.RANDOM_FAST_BIAS else SLOW)
        groups.add(group)
    assert groups == {FAST, SLOW}


def test_random_laggard_draws_one_in_bounds_delay_per_peer_in_peer_order():
    (group, delays), draws = ask("random_laggard", seed=11)
    mirror = random.Random(11)
    assert group == ALL and draws == 4  # uniform() is one random() each
    assert delays == [mirror.uniform(0.002, 0.01) for _ in range(4)]
    assert all(0.002 <= d <= 0.01 for d in delays)


def test_flood_draws_stream_order():
    rng, mirror = random.Random(5), random.Random(5)
    assert adversary.flood_draws(rng, [0, 1, 2], 200) == (
        mirror.choice([0, 1, 2]), mirror.randint(1, 200), mirror.getrandbits(32), mirror.getrandbits(16)
    )
    assert rng.getstate() == mirror.getstate()
