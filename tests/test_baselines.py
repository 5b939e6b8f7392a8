"""Unit tests for the baseline synchronizers and their aggregation rules."""

from __future__ import annotations

import pytest

from repro.baselines.lamport_melliar_smith import LamportMelliarSmithProcess, egocentric_average
from repro.baselines.lundelius_welch import LundeliusWelchProcess, fault_tolerant_midpoint
from repro.baselines.naive import FreeRunningProcess, InflatedClockAttacker, SyncToMaxProcess
from repro.core.params import params_for
from repro.workloads.scenarios import Scenario, run_scenario


# -- aggregation rules (pure functions) ----------------------------------------------------


def test_fault_tolerant_midpoint_discards_extremes():
    values = [-100.0, 0.0, 0.1, 0.2, 100.0]
    assert fault_tolerant_midpoint(values, f=1) == pytest.approx(0.1)


def test_fault_tolerant_midpoint_bounded_by_honest_values_with_f_outliers():
    honest = [0.0, 0.05, 0.1]
    values = honest + [1000.0]
    result = fault_tolerant_midpoint(values, f=1)
    assert min(honest) <= result <= max(honest)


def test_fault_tolerant_midpoint_empty_and_small_inputs():
    assert fault_tolerant_midpoint([], f=2) == 0.0
    assert fault_tolerant_midpoint([0.4], f=2) == pytest.approx(0.4)
    assert fault_tolerant_midpoint([0.0, 1.0], f=3) == pytest.approx(0.5)


def test_fault_tolerant_midpoint_order_invariant():
    values = [0.3, -0.2, 0.7, 0.1, -0.5]
    assert fault_tolerant_midpoint(values, 1) == fault_tolerant_midpoint(sorted(values), 1)


def test_egocentric_average_clips_outliers_to_zero():
    assert egocentric_average([0.1, -0.1, 50.0], delta_max=1.0) == pytest.approx(0.0)
    assert egocentric_average([0.3, 0.3, 0.3], delta_max=1.0) == pytest.approx(0.3)
    assert egocentric_average([], delta_max=1.0) == 0.0


def test_egocentric_average_bounded_by_delta_max():
    values = [0.9, -0.9, 0.5, 100.0, -100.0]
    assert abs(egocentric_average(values, delta_max=1.0)) <= 1.0


# -- process-level behaviour ---------------------------------------------------------------


def run_baseline(algorithm, attack="silent", rounds=5, n=7, f=1, seed=3, **scenario_kwargs):
    params = params_for(n, f=f, authenticated=False, rho=1e-4, tdel=0.01, period=1.0)
    scenario = Scenario(
        params=params,
        algorithm=algorithm,
        attack=attack,
        actual_faults=f,
        rounds=rounds,
        clock_mode="random",
        delay_mode="uniform",
        seed=seed,
        **scenario_kwargs,
    )
    return run_scenario(scenario, check_guarantees=False, trace_level="full")


def test_lundelius_welch_keeps_clocks_synchronized():
    result = run_baseline("lundelius_welch")
    assert result.completed_round >= 5
    assert result.precision < 0.05


def test_lamport_melliar_smith_keeps_clocks_synchronized():
    result = run_baseline("lamport_melliar_smith")
    assert result.completed_round >= 5
    assert result.precision < 0.05


def test_sync_to_max_works_without_faults():
    result = run_baseline("sync_to_max", attack="silent")
    assert result.completed_round >= 5
    assert result.precision < 0.05


def test_sync_to_max_is_broken_by_inflated_clock():
    result = run_baseline("sync_to_max", attack="inflated_clock")
    assert result.precision > 1.0  # dragged far away by the lying clock source


def test_averaging_baselines_tolerate_inflated_clock():
    lw = run_baseline("lundelius_welch", attack="inflated_clock")
    lms = run_baseline("lamport_melliar_smith", attack="inflated_clock")
    assert lw.precision < 0.05
    assert lms.precision < 0.05


def test_free_running_clocks_drift_apart():
    params = params_for(4, f=0, authenticated=False, rho=5e-3, tdel=0.01, period=1.0)
    scenario = Scenario(
        params=params,
        algorithm="free_running",
        rounds=8,
        clock_mode="extreme",
        delay_mode="uniform",
        seed=1,
    )
    result = run_scenario(scenario, check_guarantees=False)
    # With rho = 5e-3 and ~8 seconds, extreme clocks drift apart by ~8 * 1e-2.
    assert result.precision > 0.05
    assert result.total_messages == 0


def test_baseline_processes_record_resyncs():
    result = run_baseline("lundelius_welch")
    for pid in result.trace.honest_pids():
        assert len(result.trace.processes[pid].resyncs) >= 5


def test_baseline_constructor_delta_max_default():
    params = params_for(7, f=2, authenticated=False)
    proc = LamportMelliarSmithProcess(0, params)
    assert proc.delta_max > 0
    explicit = LamportMelliarSmithProcess(1, params, delta_max=0.5)
    assert explicit.delta_max == 0.5


def test_baseline_algorithm_names():
    params = params_for(4, f=1, authenticated=False)
    assert LundeliusWelchProcess(0, params).algorithm_name == "lundelius-welch"
    assert LamportMelliarSmithProcess(0, params).algorithm_name == "lamport-melliar-smith"
    assert SyncToMaxProcess(0, params).algorithm_name == "sync-to-max"
    assert FreeRunningProcess(0, params).algorithm_name == "free-running"
    assert InflatedClockAttacker(9, params).faulty
