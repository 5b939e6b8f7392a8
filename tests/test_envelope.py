"""Unit tests for the oracle's accuracy-envelope measurements (``tests/oracle.py``)."""

from __future__ import annotations

import pytest

from repro.sim.clocks import FixedRateClock, PiecewiseLinearClock
from repro.sim.trace import ProcessTrace, Trace

from oracle import accuracy_summary, fit_envelope, long_run_rate, rate_extremes


def make_ptrace(rate=1.0, offset=0.0, adjustments=()):
    ptrace = ProcessTrace(pid=0, clock=FixedRateClock(rate=rate, offset=offset))
    for t, adj in adjustments:
        ptrace.record_adjustment(t, adj)
    return ptrace


def test_long_run_rate_of_fixed_clock():
    ptrace = make_ptrace(rate=1.02)
    assert long_run_rate(ptrace, 0.0, 10.0) == pytest.approx(1.02)


def test_long_run_rate_includes_adjustments():
    ptrace = make_ptrace(rate=1.0, adjustments=[(5.0, 1.0)])
    # Over [0, 10] the clock advanced 10 (hardware) + 1 (jump) = 11.
    assert long_run_rate(ptrace, 0.0, 10.0) == pytest.approx(1.1)


def test_long_run_rate_requires_positive_window():
    with pytest.raises(ValueError):
        long_run_rate(make_ptrace(), 5.0, 5.0)


def test_rate_extremes_piecewise_clock():
    clock = PiecewiseLinearClock([(0.0, 0.9), (5.0, 1.1)])
    ptrace = ProcessTrace(pid=0, clock=clock)
    extremes = rate_extremes(ptrace, 0.0, 10.0, min_window=4.0)
    assert extremes.slowest == pytest.approx(0.9, abs=1e-6)
    assert extremes.fastest == pytest.approx(1.1, abs=1e-6)


def test_rate_extremes_fall_back_to_long_run_for_huge_window():
    ptrace = make_ptrace(rate=1.05)
    extremes = rate_extremes(ptrace, 0.0, 2.0, min_window=100.0)
    assert extremes.slowest == pytest.approx(1.05)
    assert extremes.fastest == pytest.approx(1.05)


def test_fit_envelope_perfect_clock_has_zero_constants():
    ptrace = make_ptrace(rate=1.0)
    fit = fit_envelope(ptrace, rate_low=1.0, rate_high=1.0, t_start=0.0, t_end=10.0)
    assert fit.a == pytest.approx(0.0, abs=1e-12)
    assert fit.b == pytest.approx(0.0, abs=1e-12)


def test_fit_envelope_captures_forward_jumps():
    ptrace = make_ptrace(rate=1.0, adjustments=[(5.0, 0.3)])
    fit = fit_envelope(ptrace, rate_low=1.0, rate_high=1.0, t_start=0.0, t_end=10.0)
    # Upper envelope violated by the +0.3 jump; lower envelope still fine.
    assert fit.b == pytest.approx(0.3)
    assert fit.a == pytest.approx(0.0, abs=1e-12)


def test_fit_envelope_captures_backward_jumps():
    ptrace = make_ptrace(rate=1.0, adjustments=[(5.0, -0.2)])
    fit = fit_envelope(ptrace, rate_low=1.0, rate_high=1.0, t_start=0.0, t_end=10.0)
    assert fit.a == pytest.approx(0.2)
    assert fit.b == pytest.approx(0.0, abs=1e-12)


def test_fit_envelope_with_slack_rates_absorbs_drift():
    ptrace = make_ptrace(rate=1.05)
    fit = fit_envelope(ptrace, rate_low=0.9, rate_high=1.1, t_start=0.0, t_end=10.0)
    assert fit.a == pytest.approx(0.0, abs=1e-12)
    assert fit.b == pytest.approx(0.0, abs=1e-12)


def test_accuracy_summary_aggregates_honest_processes():
    trace = Trace()
    trace.add_process(0, FixedRateClock(rate=1.0))
    trace.add_process(1, FixedRateClock(rate=1.1))
    trace.add_process(2, FixedRateClock(rate=5.0), faulty=True)  # must be ignored
    trace.end_time = 10.0
    summary = accuracy_summary(trace, rate_low=0.95, rate_high=1.05, min_window=5.0)
    assert summary.slowest_long_run_rate == pytest.approx(1.0)
    assert summary.fastest_long_run_rate == pytest.approx(1.1)
    assert summary.fastest_window_rate == pytest.approx(1.1)
    assert summary.envelope_b > 0  # the 1.1-rate clock exceeds the 1.05 envelope
    assert summary.worst_offset_from_real_time == pytest.approx(1.0)


def test_accuracy_summary_window_defaults():
    trace = Trace()
    trace.add_process(0, FixedRateClock(rate=1.0))
    trace.end_time = 8.0
    summary = accuracy_summary(trace, rate_low=1.0, rate_high=1.0)
    assert summary.slowest_long_run_rate == pytest.approx(1.0)
