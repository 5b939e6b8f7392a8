"""Integration tests: the authenticated synchronizer as a whole system.

Every test runs a full multi-process simulation and checks the paper's
guarantees through the exact trace measurements.
"""

from __future__ import annotations

import pytest

from repro.analysis import metrics
from repro.core.bounds import AUTH, beta_max, beta_min, precision_bound
from repro.core.params import params_for
from repro.faults.strategies import TOLERATED_ATTACKS
from repro.workloads.scenarios import Scenario, run_scenario

from oracle import liveness

ROUNDS = 8


def run_auth(n=7, attack="eager", rounds=ROUNDS, seed=0, **kwargs):
    params = kwargs.pop("params", None) or params_for(
        n, authenticated=True, rho=1e-4, tdel=0.01, period=1.0, initial_offset_spread=0.005
    )
    scenario = Scenario(
        params=params,
        algorithm="auth",
        attack=attack,
        rounds=rounds,
        clock_mode=kwargs.pop("clock_mode", "extreme"),
        delay_mode=kwargs.pop("delay_mode", "targeted"),
        seed=seed,
        **kwargs,
    )
    return run_scenario(scenario, trace_level="full")


def test_benign_run_meets_all_guarantees():
    result = run_auth(attack="silent", delay_mode="uniform", clock_mode="random")
    assert result.completed_round >= ROUNDS
    assert result.guarantees_hold, result.guarantees.describe()


def test_precision_under_worst_case_clocks_and_delays():
    result = run_auth(attack="skew_max")
    bound = precision_bound(result.params, AUTH)
    assert result.precision <= bound
    assert result.guarantees_hold, result.guarantees.describe()


@pytest.mark.parametrize("attack", list(TOLERATED_ATTACKS))
def test_guarantees_hold_under_every_tolerated_attack(attack):
    result = run_auth(attack=attack, seed=abs(hash(attack)) % 1000)
    assert result.completed_round >= ROUNDS
    assert result.guarantees_hold, result.guarantees.describe()


@pytest.mark.parametrize("n", [3, 4, 5, 8, 11])
def test_various_system_sizes_at_max_faults(n):
    result = run_auth(n=n, attack="eager", seed=n)
    assert result.completed_round >= ROUNDS
    assert result.guarantees_hold, result.guarantees.describe()


def test_liveness_every_round_accepted_by_everyone():
    result = run_auth(attack="two_faced")
    assert liveness(result.trace, ROUNDS)
    for ptrace in result.trace.honest():
        assert ptrace.rounds_accepted()[: ROUNDS] == list(range(1, ROUNDS + 1))


def test_acceptance_spread_bounded_by_one_delay():
    result = run_auth(attack="eager")
    assert result.acceptance_spread <= result.params.tdel + 1e-9


def test_resync_intervals_within_beta_bounds():
    result = run_auth(attack="skew_max")
    stats = result.period_stats
    assert stats.minimum >= beta_min(result.params, AUTH) - 1e-9
    assert stats.maximum <= beta_max(result.params, AUTH) + 1e-9


def test_skew_does_not_grow_over_time():
    """Precision in the second half of the run is no worse than the bound --
    i.e. the algorithm holds the system together indefinitely."""
    result = run_auth(attack="skew_max", rounds=12)
    half = result.trace.end_time / 2
    late_skew = metrics.max_skew(result.trace, t_start=half)
    assert late_skew <= precision_bound(result.params, AUTH)


def test_logical_clocks_stay_close_to_real_time():
    result = run_auth(attack="silent", delay_mode="uniform", clock_mode="random")
    assert result.accuracy is not None
    # Over ~8 periods the worst offset stays well below one period.
    assert result.accuracy.worst_offset_from_real_time < result.params.period / 2


def test_min_delay_adversary_is_also_tolerated():
    result = run_auth(attack="eager", delay_mode="min")
    assert result.guarantees_hold, result.guarantees.describe()


def test_max_delay_adversary_is_also_tolerated():
    result = run_auth(attack="eager", delay_mode="max")
    assert result.guarantees_hold, result.guarantees.describe()


def test_larger_drift_still_within_its_bound():
    params = params_for(7, authenticated=True, rho=2e-3, tdel=0.01, period=1.0, initial_offset_spread=0.005)
    result = run_auth(params=params, attack="skew_max")
    assert result.guarantees_hold, result.guarantees.describe()


def test_longer_period_still_within_its_bound():
    params = params_for(5, authenticated=True, rho=1e-3, tdel=0.02, period=5.0, initial_offset_spread=0.01)
    result = run_auth(params=params, attack="eager", rounds=4)
    assert result.guarantees_hold, result.guarantees.describe()


def test_crash_faults_do_not_affect_survivors():
    result = run_auth(attack="crash")
    assert result.guarantees_hold, result.guarantees.describe()


def test_monotonic_variant_keeps_clocks_monotone_and_synchronized():
    result = run_scenario(
        Scenario(
            params=params_for(7, authenticated=True, initial_offset_spread=0.005),
            algorithm="auth",
            attack="skew_max",
            rounds=ROUNDS,
            clock_mode="extreme",
            delay_mode="targeted",
            monotonic=True,
            seed=5,
        ),
        check_guarantees=False,
        trace_level="full",
    )
    assert metrics.max_backward_adjustment(result.trace, skip_first=0) == 0.0
    assert result.precision <= precision_bound(result.params, AUTH)


def test_guarantee_report_lists_expected_checks():
    result = run_auth(attack="eager")
    names = {check.name for check in result.guarantees.checks}
    assert {"precision", "acceptance_spread", "period_min", "period_max", "liveness"} <= names
