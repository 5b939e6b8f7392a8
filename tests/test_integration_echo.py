"""Integration tests: the non-authenticated (echo) synchronizer as a whole system."""

from __future__ import annotations

import pytest

from repro.analysis import metrics
from repro.core.bounds import ECHO, beta_max, beta_min, precision_bound
from repro.core.params import params_for
from repro.faults.strategies import TOLERATED_ATTACKS
from repro.workloads.scenarios import Scenario, run_scenario

from oracle import liveness

ROUNDS = 8


def run_echo(n=7, attack="eager", rounds=ROUNDS, seed=0, **kwargs):
    params = kwargs.pop("params", None) or params_for(
        n, authenticated=False, rho=1e-4, tdel=0.01, period=1.0, initial_offset_spread=0.005
    )
    scenario = Scenario(
        params=params,
        algorithm="echo",
        attack=attack,
        rounds=rounds,
        clock_mode=kwargs.pop("clock_mode", "extreme"),
        delay_mode=kwargs.pop("delay_mode", "targeted"),
        seed=seed,
        **kwargs,
    )
    return run_scenario(scenario, trace_level="full")


def test_benign_run_meets_all_guarantees():
    result = run_echo(attack="silent", delay_mode="uniform", clock_mode="random")
    assert result.completed_round >= ROUNDS
    assert result.guarantees_hold, result.guarantees.describe()


def test_precision_under_worst_case_conditions():
    result = run_echo(attack="skew_max")
    assert result.precision <= precision_bound(result.params, ECHO)
    assert result.guarantees_hold, result.guarantees.describe()


@pytest.mark.parametrize("attack", list(TOLERATED_ATTACKS))
def test_guarantees_hold_under_every_tolerated_attack(attack):
    result = run_echo(attack=attack, seed=abs(hash(attack)) % 1000)
    assert result.completed_round >= ROUNDS
    assert result.guarantees_hold, result.guarantees.describe()


@pytest.mark.parametrize("n", [4, 5, 7, 10, 13])
def test_various_system_sizes_at_max_faults(n):
    result = run_echo(n=n, attack="eager", seed=n)
    assert result.completed_round >= ROUNDS
    assert result.guarantees_hold, result.guarantees.describe()


def test_acceptance_spread_bounded_by_two_delays():
    result = run_echo(attack="eager")
    assert result.acceptance_spread <= 2 * result.params.tdel + 1e-9


def test_resync_intervals_within_beta_bounds():
    result = run_echo(attack="skew_max")
    stats = result.period_stats
    assert stats.minimum >= beta_min(result.params, ECHO) - 1e-9
    assert stats.maximum <= beta_max(result.params, ECHO) + 1e-9


def test_liveness_every_round_accepted_by_everyone():
    result = run_echo(attack="two_faced")
    assert liveness(result.trace, ROUNDS)


def test_skew_does_not_grow_over_time():
    result = run_echo(attack="skew_max", rounds=12)
    half = result.trace.end_time / 2
    assert metrics.max_skew(result.trace, t_start=half) <= precision_bound(result.params, ECHO)


def test_larger_drift_still_within_its_bound():
    params = params_for(7, authenticated=False, rho=2e-3, tdel=0.01, period=1.0, initial_offset_spread=0.005)
    result = run_echo(params=params, attack="skew_max")
    assert result.guarantees_hold, result.guarantees.describe()


def test_echo_uses_no_signatures_at_all():
    result = run_echo(attack="silent", delay_mode="uniform")
    assert "SignedRound" not in result.trace.message_stats
    assert "SignatureBundle" not in result.trace.message_stats
    assert result.trace.message_stats.get("InitMessage", 0) > 0
    assert result.trace.message_stats.get("EchoMessage", 0) > 0


def test_auth_tolerates_more_faults_than_echo_for_same_n():
    """The resilience gap the paper is about: at n=7 auth tolerates f=3, echo only f=2."""
    auth_params = params_for(7, authenticated=True)
    echo_params = params_for(7, authenticated=False)
    assert auth_params.f == 3 and echo_params.f == 2
    auth_result = run_scenario(
        Scenario(params=auth_params, algorithm="auth", attack="eager", rounds=6, seed=1,
                 clock_mode="extreme", delay_mode="targeted")
    )
    assert auth_result.guarantees_hold
