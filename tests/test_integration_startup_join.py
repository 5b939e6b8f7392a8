"""Integration tests for start-up (initial synchronization) and join (integration)."""

from __future__ import annotations

import pytest

from repro.analysis import metrics
from repro.core.bounds import precision_bound
from repro.core.join import join_latency_bound, join_time, joined
from repro.core.params import params_for
from repro.core.startup import startup_completion_bound
from repro.workloads.scenarios import Scenario, run_scenario

from oracle import liveness


def run_startup(algorithm, boot_spread, seed=0, rounds=5, offset_spread=0.05):
    params = params_for(
        7, authenticated=(algorithm == "auth"), rho=1e-4, tdel=0.01, period=1.0,
        initial_offset_spread=offset_spread,
    )
    scenario = Scenario(
        params=params,
        algorithm=algorithm,
        attack="silent",
        rounds=rounds,
        clock_mode="extreme",
        delay_mode="uniform",
        use_startup=True,
        boot_spread=boot_spread,
        seed=seed,
    )
    return run_scenario(scenario, check_guarantees=False, trace_level="full"), scenario


@pytest.mark.parametrize("algorithm", ["auth", "echo"])
@pytest.mark.parametrize("boot_spread", [0.0, 0.05, 0.3])
def test_startup_everyone_synchronizes_in_time(algorithm, boot_spread):
    result, scenario = run_startup(algorithm, boot_spread)
    synced_by = metrics.steady_state_start(result.trace)
    bound = startup_completion_bound(result.params, boot_spread, scenario.st_algorithm)
    assert synced_by <= bound
    for ptrace in result.trace.honest():
        assert ptrace.resyncs, "every correct process must synchronize at least once"


@pytest.mark.parametrize("algorithm", ["auth", "echo"])
def test_startup_precision_holds_after_first_full_round(algorithm):
    result, scenario = run_startup(algorithm, boot_spread=0.05)
    settled = metrics.skew_after_round(result.trace, 1)
    assert settled is not None
    assert settled <= precision_bound(result.params, scenario.st_algorithm)


def test_startup_with_simultaneous_boot_synchronizes_immediately():
    result, scenario = run_startup("auth", boot_spread=0.0)
    # Round 0 completes within the acceptance latency of the boot.
    assert metrics.steady_state_start(result.trace) <= 2 * result.params.tdel
    assert liveness(result.trace, 3)


def test_startup_under_eager_adversary_still_works():
    params = params_for(7, authenticated=True, initial_offset_spread=0.02)
    scenario = Scenario(
        params=params,
        algorithm="auth",
        attack="eager",
        rounds=5,
        clock_mode="extreme",
        delay_mode="targeted",
        use_startup=True,
        boot_spread=0.02,
        seed=9,
    )
    result = run_scenario(scenario, check_guarantees=False, trace_level="full")
    settled = metrics.skew_after_round(result.trace, 1)
    assert settled is not None and settled <= precision_bound(params, "auth")


# -- join ------------------------------------------------------------------------------------


def run_join(algorithm, join_at, seed=0, rounds=8, attack="eager"):
    params = params_for(7, authenticated=(algorithm == "auth"), rho=1e-4, tdel=0.01, period=1.0,
                        initial_offset_spread=0.005)
    scenario = Scenario(
        params=params,
        algorithm=algorithm,
        attack=attack,
        rounds=rounds,
        clock_mode="extreme",
        delay_mode="uniform",
        joiner_count=1,
        join_time=join_at,
        seed=seed,
    )
    return run_scenario(scenario, check_guarantees=False, trace_level="full"), scenario


@pytest.mark.parametrize("algorithm", ["auth", "echo"])
@pytest.mark.parametrize("join_at", [1.4, 2.7, 4.2])
def test_joiner_synchronizes_within_latency_bound(algorithm, join_at):
    result, scenario = run_join(algorithm, join_at)
    joiner_pid = scenario.joiner_pids[0]
    assert joined(result.trace, joiner_pid)
    latency = join_time(result.trace, joiner_pid, join_at)
    assert latency <= join_latency_bound(result.params, scenario.st_algorithm)


@pytest.mark.parametrize("algorithm", ["auth", "echo"])
def test_joiner_then_obeys_precision_bound(algorithm):
    result, scenario = run_join(algorithm, join_at=2.2)
    joiner_pid = scenario.joiner_pids[0]
    first_sync = result.trace.processes[joiner_pid].resyncs[0].time
    skew_with_joiner = metrics.max_skew(result.trace, t_start=first_sync)
    assert skew_with_joiner <= precision_bound(result.params, scenario.st_algorithm)


def test_joiner_keeps_participating_after_joining():
    result, scenario = run_join("auth", join_at=1.5, rounds=8)
    joiner_pid = scenario.joiner_pids[0]
    rounds = result.trace.processes[joiner_pid].rounds_accepted()
    assert len(rounds) >= 4
    assert rounds == sorted(rounds)


def test_two_joiners_both_integrate():
    params = params_for(7, authenticated=True, initial_offset_spread=0.005)
    scenario = Scenario(
        params=params,
        algorithm="auth",
        attack="silent",
        rounds=7,
        joiner_count=2,
        join_time=2.4,
        clock_mode="random",
        delay_mode="uniform",
        seed=4,
    )
    result = run_scenario(scenario, check_guarantees=False, trace_level="full")
    for pid in scenario.joiner_pids:
        assert joined(result.trace, pid)
