"""Property-based end-to-end tests.

Hypothesis draws model parameters, adversary strategies and seeds, and the
paper's guarantees must hold for every draw.  Example counts are kept modest
because each example is a full simulation.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis import metrics
from repro.core.bounds import AUTH, ECHO, precision_bound
from repro.core.params import params_for
from repro.workloads.scenarios import Scenario, run_scenario

FAST = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@given(
    n=st.integers(min_value=3, max_value=9),
    rho=st.sampled_from([1e-5, 1e-4, 1e-3]),
    tdel=st.sampled_from([0.005, 0.01, 0.02]),
    attack=st.sampled_from(["eager", "two_faced", "skew_max", "silent"]),
    clock_mode=st.sampled_from(["extreme", "random"]),
    delay_mode=st.sampled_from(["targeted", "uniform", "max", "min"]),
    seed=st.integers(min_value=0, max_value=10_000),
)
@FAST
def test_property_auth_precision_bound_holds(n, rho, tdel, attack, clock_mode, delay_mode, seed):
    params = params_for(n, authenticated=True, rho=rho, tdel=tdel, period=1.0, initial_offset_spread=tdel / 2)
    scenario = Scenario(
        params=params,
        algorithm="auth",
        attack=attack,
        rounds=5,
        clock_mode=clock_mode,
        delay_mode=delay_mode,
        seed=seed,
    )
    result = run_scenario(scenario, check_guarantees=False, trace_level="full")
    assert result.completed_round >= 5
    assert result.precision <= precision_bound(params, AUTH) + 1e-9
    assert result.acceptance_spread <= tdel + 1e-9


@given(
    n=st.integers(min_value=4, max_value=10),
    rho=st.sampled_from([1e-4, 1e-3]),
    attack=st.sampled_from(["eager", "two_faced", "skew_max", "silent"]),
    delay_mode=st.sampled_from(["targeted", "uniform"]),
    seed=st.integers(min_value=0, max_value=10_000),
)
@FAST
def test_property_echo_precision_bound_holds(n, rho, attack, delay_mode, seed):
    params = params_for(n, authenticated=False, rho=rho, tdel=0.01, period=1.0, initial_offset_spread=0.005)
    scenario = Scenario(
        params=params,
        algorithm="echo",
        attack=attack,
        rounds=5,
        clock_mode="extreme",
        delay_mode=delay_mode,
        seed=seed,
    )
    result = run_scenario(scenario, check_guarantees=False, trace_level="full")
    assert result.completed_round >= 5
    assert result.precision <= precision_bound(params, ECHO) + 1e-9
    assert result.acceptance_spread <= 2 * 0.01 + 1e-9


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    join_at=st.floats(min_value=1.2, max_value=4.5),
)
@FAST
def test_property_joiner_always_integrates(seed, join_at):
    params = params_for(7, authenticated=True, initial_offset_spread=0.005)
    scenario = Scenario(
        params=params,
        algorithm="auth",
        attack="eager",
        rounds=7,
        joiner_count=1,
        join_time=join_at,
        clock_mode="random",
        delay_mode="uniform",
        seed=seed,
    )
    result = run_scenario(scenario, check_guarantees=False, trace_level="full")
    joiner = scenario.joiner_pids[0]
    resyncs = result.trace.processes[joiner].resyncs
    assert resyncs, "the joiner must synchronize"
    assert resyncs[0].time - join_at <= 1.2 * params.period


@given(seed=st.integers(min_value=0, max_value=10_000), boot_spread=st.floats(min_value=0.0, max_value=0.3))
@FAST
def test_property_startup_always_converges(seed, boot_spread):
    params = params_for(5, authenticated=True, initial_offset_spread=0.05)
    scenario = Scenario(
        params=params,
        algorithm="auth",
        attack="silent",
        rounds=4,
        use_startup=True,
        boot_spread=boot_spread,
        clock_mode="random",
        delay_mode="uniform",
        seed=seed,
    )
    result = run_scenario(scenario, check_guarantees=False, trace_level="full")
    settled = metrics.skew_after_round(result.trace, 1)
    assert settled is not None
    assert settled <= precision_bound(params, AUTH) + 1e-9
