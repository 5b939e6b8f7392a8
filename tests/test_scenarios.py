"""Unit tests for scenario construction, cluster assembly and sweeps."""

from __future__ import annotations


import pytest

from repro.baselines import InflatedClockAttacker, LundeliusWelchProcess
from repro.core.auth_sync import AuthSyncProcess
from repro.core.params import params_for
from repro.core.unauth_sync import EchoSyncProcess
from repro.faults.behaviors import SilentFaulty
from repro.sim.network import MaxDelay, MinDelay, TargetedDelay, UniformDelay
from repro.workloads.scenarios import Scenario, build_cluster, run_scenario
from repro.workloads.sweeps import grid, run_sweep, scenario_sweep


@pytest.fixture
def auth_params():
    return params_for(5, authenticated=True, rho=1e-4, tdel=0.01, period=1.0)


# -- Scenario validation -----------------------------------------------------------------


def test_scenario_defaults_and_name(auth_params):
    scenario = Scenario(params=auth_params)
    assert scenario.actual_faults == auth_params.f
    assert scenario.name.startswith("auth-n5")
    assert scenario.honest_pids == [0, 1, 2]
    assert scenario.faulty_pids == [3, 4]
    assert scenario.joiner_pids == []
    assert scenario.st_algorithm == "auth"


def test_scenario_rejects_unknown_algorithm(auth_params):
    with pytest.raises(ValueError):
        Scenario(params=auth_params, algorithm="ntp")


def test_scenario_rejects_unknown_modes(auth_params):
    with pytest.raises(ValueError):
        Scenario(params=auth_params, clock_mode="weird")
    with pytest.raises(ValueError):
        Scenario(params=auth_params, delay_mode="weird")
    with pytest.raises(ValueError):
        Scenario(params=auth_params, rounds=0)
    for field, value in (("joiner_count", -1), ("join_time", -5.0), ("boot_spread", -0.1)):
        with pytest.raises(ValueError, match=field):
            Scenario(params=auth_params, **{field: value})


def test_scenario_rejects_all_faulty(auth_params):
    with pytest.raises(ValueError):
        Scenario(params=auth_params, actual_faults=5)


def test_scenario_horizon_scales_with_rounds(auth_params):
    short = Scenario(params=auth_params, rounds=5)
    long = Scenario(params=auth_params, rounds=20)
    assert long.horizon() > short.horizon()


def test_scenario_joiner_pids(auth_params):
    scenario = Scenario(params=auth_params, joiner_count=2, join_time=2.0)
    assert scenario.joiner_pids == [5, 6]


# -- build_cluster ---------------------------------------------------------------------------


def test_build_cluster_auth_composition(auth_params):
    handles = build_cluster(Scenario(params=auth_params, algorithm="auth", seed=1))
    assert len(handles.honest) == 3
    assert all(isinstance(p, AuthSyncProcess) for p in handles.honest)
    assert len(handles.faulty) == 2
    assert all(isinstance(p, SilentFaulty) for p in handles.faulty)
    assert handles.keystore is not None
    assert sorted(handles.sim.processes) == [0, 1, 2, 3, 4]


def test_build_cluster_echo_has_no_keystore():
    params = params_for(7, authenticated=False)
    handles = build_cluster(Scenario(params=params, algorithm="echo"))
    assert handles.keystore is None
    assert all(isinstance(p, EchoSyncProcess) for p in handles.honest)


def test_build_cluster_baseline_with_inflated_clock_attack():
    params = params_for(5, f=1, authenticated=False)
    handles = build_cluster(
        Scenario(params=params, algorithm="lundelius_welch", attack="inflated_clock", actual_faults=1)
    )
    assert all(isinstance(p, LundeliusWelchProcess) for p in handles.honest)
    assert all(isinstance(p, InflatedClockAttacker) for p in handles.faulty)


def test_build_cluster_rejects_st_attack_on_baseline():
    params = params_for(5, f=1, authenticated=False)
    with pytest.raises(ValueError):
        build_cluster(Scenario(params=params, algorithm="lundelius_welch", attack="eager", actual_faults=1))


@pytest.mark.parametrize(
    "delay_mode,expected",
    [("uniform", UniformDelay), ("max", MaxDelay), ("min", MinDelay), ("targeted", TargetedDelay)],
)
def test_build_cluster_delay_policies(auth_params, delay_mode, expected):
    handles = build_cluster(Scenario(params=auth_params, delay_mode=delay_mode))
    assert isinstance(handles.sim.network.policy, expected)


def test_build_cluster_clock_modes(auth_params):
    extreme = build_cluster(Scenario(params=auth_params, clock_mode="extreme"))
    rates = {round(t.clock.max_rate, 6) for t in extreme.sim.trace.honest()}
    assert len(rates) == 2  # alternating fastest/slowest
    nominal = build_cluster(Scenario(params=auth_params, clock_mode="nominal"))
    assert all(t.clock.max_rate == 1.0 for t in nominal.sim.trace.honest())
    random_clocks = build_cluster(Scenario(params=auth_params, clock_mode="random"))
    assert all(t.clock.respects_drift(auth_params.rho) for t in random_clocks.sim.trace.honest())


def test_build_cluster_joiners_marked_honest(auth_params):
    handles = build_cluster(Scenario(params=auth_params, joiner_count=1, join_time=2.0))
    assert len(handles.joiners) == 1
    assert handles.joiners[0].joiner
    assert not handles.sim.trace.processes[5].faulty


# -- run_scenario -----------------------------------------------------------------------------


def test_run_scenario_reports_basic_fields(auth_params):
    result = run_scenario(Scenario(params=auth_params, rounds=4, seed=2))
    assert result.completed_round >= 4
    assert result.precision >= 0.0
    assert result.total_messages > 0
    assert result.guarantees is not None
    assert result.guarantees_hold
    assert result.params is auth_params


def test_run_scenario_guarantee_check_disabled_for_out_of_spec(auth_params):
    scenario = Scenario(params=auth_params, attack="rushing_cabal", actual_faults=auth_params.f + 1, rounds=4)
    result = run_scenario(scenario)
    assert result.guarantees is None
    assert result.guarantees_hold  # vacuously true when not checked


def test_run_scenario_baseline_has_no_guarantee_report():
    params = params_for(5, f=1, authenticated=False)
    result = run_scenario(Scenario(params=params, algorithm="lundelius_welch", rounds=4, actual_faults=1))
    assert result.guarantees is None


# -- sweeps -----------------------------------------------------------------------------------


def test_grid_cartesian_product():
    points = grid(n=[4, 7], rho=[1e-4, 1e-3])
    assert len(points) == 4
    assert {"n": 4, "rho": 1e-3} in points


def test_scenario_sweep_splits_param_and_scenario_fields(auth_params):
    base = Scenario(params=auth_params, rounds=4)
    scenarios = scenario_sweep(base, grid(rho=[1e-4, 1e-3], attack=["eager"]))
    assert len(scenarios) == 2
    assert {s.params.rho for s in scenarios} == {1e-4, 1e-3}
    assert all(s.attack == "eager" for s in scenarios)
    assert all(s.rounds == 4 for s in scenarios)
    # The base scenario is untouched.
    assert base.params.rho == 1e-4 and base.attack is None


def test_run_sweep_returns_results_in_order_and_calls_callback(auth_params):
    base = Scenario(params=auth_params, rounds=3)
    scenarios = scenario_sweep(base, grid(seed=[1, 2]))
    seen = []
    results = run_sweep(scenarios, callback=lambda r: seen.append(r.scenario.seed))
    assert [r.scenario.seed for r in results] == [1, 2]
    assert seen == [1, 2]
