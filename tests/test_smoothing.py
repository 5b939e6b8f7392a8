"""Tests for the amortized (continuous, rate-bounded) output clocks."""

from __future__ import annotations

import pytest

from repro.core.params import params_for
from repro.core.smoothing import (
    default_catch_up_rate,
    max_lag,
    smooth_all,
    smooth_clock,
    smoothed_skew,
)
from repro.sim.clocks import FixedRateClock
from repro.sim.trace import ProcessTrace
from repro.workloads.scenarios import Scenario, run_scenario


def make_ptrace(rate=1.0, adjustments=()):
    ptrace = ProcessTrace(pid=0, clock=FixedRateClock(rate=rate))
    for t, adj in adjustments:
        ptrace.record_adjustment(t, adj)
    return ptrace


def test_requires_catch_up_rate_above_hardware_rate():
    ptrace = make_ptrace(rate=1.0)
    with pytest.raises(ValueError):
        smooth_clock(ptrace, t_end=10.0, catch_up_rate=1.0)


def test_default_catch_up_rate():
    assert default_catch_up_rate(1.01, 0.1) == pytest.approx(1.111)
    with pytest.raises(ValueError):
        default_catch_up_rate(1.0, 0.0)


def test_smoothed_clock_without_jumps_equals_logical():
    ptrace = make_ptrace(rate=1.0)
    smoothed = smooth_clock(ptrace, t_end=10.0, catch_up_rate=1.1)
    for t in (0.0, 2.5, 7.0, 10.0):
        assert smoothed.value(t) == pytest.approx(t)
    assert smoothed.max_jump() == pytest.approx(0.0)


def test_forward_jump_is_amortized_not_jumped():
    # Logical clock jumps by +1 at t=5; the output clock must absorb it at the
    # extra-rate budget (0.1) over the next ~10 time units.
    ptrace = make_ptrace(rate=1.0, adjustments=[(5.0, 1.0)])
    smoothed = smooth_clock(ptrace, t_end=30.0, catch_up_rate=1.1)
    assert smoothed.max_jump() == pytest.approx(0.0, abs=1e-12)
    assert smoothed.max_rate() <= 1.1 + 1e-9
    # Just after the jump the output clock lags by ~1 ...
    assert ptrace.logical_at(5.0) - smoothed.value(5.0) == pytest.approx(1.0)
    # ... and has fully caught up by t = 5 + 1/0.1 = 15.
    assert ptrace.logical_at(20.0) - smoothed.value(20.0) == pytest.approx(0.0, abs=1e-9)
    assert max_lag(ptrace, smoothed, 30.0) <= 1.0 + 1e-9


def test_backward_jump_never_moves_output_clock_back():
    ptrace = make_ptrace(rate=1.0, adjustments=[(5.0, -0.5)])
    smoothed = smooth_clock(ptrace, t_end=20.0, catch_up_rate=1.1)
    values = [smoothed.value(t) for t in [0.0, 4.9, 5.0, 5.1, 10.0, 20.0]]
    assert values == sorted(values)
    assert smoothed.max_jump() == pytest.approx(0.0, abs=1e-12)
    # The output clock never exceeds the running maximum of the logical clock.
    assert smoothed.value(20.0) <= max(ptrace.logical_at(t) for t in [0.0, 5.0, 20.0]) + 1e-9


def test_rate_bounds_hold_with_drifting_hardware():
    ptrace = ProcessTrace(pid=0, clock=FixedRateClock(rate=1.001))
    ptrace.record_adjustment(2.0, 0.05)
    ptrace.record_adjustment(4.0, 0.1)
    rate = default_catch_up_rate(1.001, 0.05)
    smoothed = smooth_clock(ptrace, t_end=10.0, catch_up_rate=rate)
    assert smoothed.max_rate() <= rate + 1e-9
    assert smoothed.min_rate() >= 0.0


def test_smooth_all_on_a_real_scenario_keeps_clocks_close():
    params = params_for(7, authenticated=True, rho=1e-4, tdel=0.01, period=1.0, initial_offset_spread=0.005)
    result = run_scenario(
        Scenario(params=params, algorithm="auth", attack="eager", rounds=8,
                 clock_mode="extreme", delay_mode="targeted", seed=6),
        trace_level="full",
    )
    smoothed = smooth_all(result.trace, amortization=0.1)
    assert set(smoothed) == set(result.trace.honest_pids())
    # Continuity and rate bounds for every output clock.
    for pid, clock in smoothed.items():
        hw_max = result.trace.processes[pid].clock.max_rate
        assert clock.max_jump() == pytest.approx(0.0, abs=1e-9)
        assert clock.max_rate() <= hw_max * 1.1 + 1e-9
    # The output clocks lag the logical clocks by at most the largest correction,
    # so their mutual skew stays within the original precision plus that lag.
    sample_times = [0.5 * i for i in range(1, int(result.trace.end_time * 2))]
    skew = smoothed_skew(smoothed, sample_times)
    worst_lag = max(
        max_lag(result.trace.processes[pid], clock, result.trace.end_time)
        for pid, clock in smoothed.items()
    )
    assert skew <= result.precision_overall + worst_lag + 1e-9
    assert worst_lag <= 0.1  # corrections are tiny compared to the period
