"""Tests for the laggard and alternating-two-faced Byzantine behaviours."""

from __future__ import annotations

import pytest

from repro.core.bounds import AUTH, ECHO, precision_bound
from repro.core.messages import SignedRound
from repro.core.params import params_for
from repro.crypto.signatures import KeyStore
from repro.faults.behaviors import AdversaryContext, FaultyAuth
from repro.faults.strategies import TOLERATED_ATTACKS, make_faulty_processes
from repro.sim.clocks import FixedRateClock
from repro.sim.engine import Simulation
from repro.sim.network import FixedDelay
from repro.workloads.scenarios import Scenario, run_scenario


def test_new_attacks_are_registered_as_tolerated():
    assert "laggard" in TOLERATED_ATTACKS
    assert "alternating" in TOLERATED_ATTACKS


def test_laggard_messages_take_the_maximum_delay():
    params = params_for(4, f=1, rho=1e-4, tdel=0.01, period=1.0)
    keystore = KeyStore.generate(4, seed=0)
    sim = Simulation(tmin=0.0, tdel=params.tdel, delay_policy=FixedDelay(0.001), seed=0)
    context = AdversaryContext.build(params, faulty_pids=[3], honest_pids=[0, 1, 2], keystore=keystore)
    laggard = FaultyAuth(3, params, keystore, keystore.secret_key(3), context=context, role="laggard")
    sim.add_process(laggard, FixedRateClock(), faulty=True)
    arrivals = []
    sim.network.register(0, lambda env: arrivals.append((sim.now, env.send_time)))
    sim.network.register(1, lambda env: None)
    sim.network.register(2, lambda env: None)
    sim.run_until(1.2)
    assert arrivals, "the laggard still participates"
    for receive_time, send_time in arrivals:
        assert receive_time - send_time == pytest.approx(params.tdel)


def test_alternating_two_faced_switches_destination_group():
    params = params_for(5, f=1, rho=1e-4, tdel=0.01, period=1.0)
    keystore = KeyStore.generate(5, seed=0)
    context = AdversaryContext.build(params, faulty_pids=[4], honest_pids=[0, 1, 2, 3], keystore=keystore)
    sim = Simulation(tmin=0.0, tdel=params.tdel, delay_policy=FixedDelay(0.001), seed=0)
    attacker = FaultyAuth(4, params, keystore, keystore.secret_key(4), context=context, role="alternating")
    sim.add_process(attacker, FixedRateClock(), faulty=True)
    received: dict[int, list] = {pid: [] for pid in range(4)}
    for pid in range(4):
        sim.network.register(pid, lambda env, pid=pid: received[env.dest].append(env.payload))
    sim.run_until(1.1)  # round 1 (odd) goes to the slow group only
    fast_has_round1 = any(
        isinstance(m, SignedRound) and m.round == 1 for pid in context.fast_group for m in received[pid]
    )
    slow_has_round1 = any(
        isinstance(m, SignedRound) and m.round == 1 for pid in context.slow_group for m in received[pid]
    )
    assert slow_has_round1 and not fast_has_round1


@pytest.mark.parametrize("algorithm", [AUTH, ECHO])
@pytest.mark.parametrize("attack", ["laggard", "alternating"])
def test_new_attack_factories_build_for_both_algorithms(algorithm, attack):
    params = params_for(7, f=2, authenticated=(algorithm == AUTH), rho=1e-4, tdel=0.01)
    keystore = KeyStore.generate(7, seed=1) if algorithm == AUTH else None
    context = AdversaryContext.build(params, faulty_pids=[5, 6], honest_pids=[0, 1, 2, 3, 4], keystore=keystore)
    processes = make_faulty_processes(attack, context, algorithm, keystore)
    assert [p.pid for p in processes] == [5, 6]
    assert all(p.faulty for p in processes)


@pytest.mark.parametrize("algorithm", ["auth", "echo"])
@pytest.mark.parametrize("attack", ["laggard", "alternating"])
def test_new_attacks_are_tolerated_end_to_end(algorithm, attack):
    params = params_for(7, authenticated=(algorithm == "auth"), rho=1e-4, tdel=0.01, period=1.0,
                        initial_offset_spread=0.005)
    scenario = Scenario(
        params=params,
        algorithm=algorithm,
        attack=attack,
        rounds=8,
        clock_mode="extreme",
        delay_mode="targeted",
        seed=17,
    )
    result = run_scenario(scenario)
    assert result.completed_round >= 8
    assert result.guarantees_hold, result.guarantees.describe()
    assert result.precision <= precision_bound(params, AUTH if algorithm == "auth" else ECHO)
