"""Unit tests for the exact trace queries and the oracle's measurements, on hand-built traces."""

from __future__ import annotations

import pytest

from repro.analysis import metrics
from repro.sim.clocks import FixedRateClock
from repro.sim.trace import ResyncEvent, Trace

from oracle import (
    acceptance_spread_by_round,
    adjustment_magnitudes,
    liveness,
    max_acceptance_spread,
    message_totals,
    messages_per_completed_round,
    period_stats,
    resync_intervals,
)


def build_trace(specs, end_time=10.0):
    """Build a trace from {pid: (rate, offset, [(t, adjustment)], faulty)} specs."""
    trace = Trace()
    for pid, (rate, offset, adjustments, faulty) in specs.items():
        trace.add_process(pid, FixedRateClock(rate=rate, offset=offset), faulty=faulty)
        for t, adj in adjustments:
            trace.record_adjustment(pid, t, adj)
    trace.end_time = end_time
    return trace


def test_skew_at_is_max_minus_min():
    trace = build_trace({0: (1.0, 0.0, [], False), 1: (1.0, 0.3, [], False), 2: (1.0, 0.1, [], False)})
    assert metrics.skew_at(trace, 5.0) == pytest.approx(0.3)


def test_skew_excludes_faulty_processes():
    trace = build_trace({0: (1.0, 0.0, [], False), 1: (1.0, 5.0, [], True)})
    assert metrics.skew_at(trace, 1.0) == 0.0
    assert metrics.max_skew(trace) == 0.0


def test_max_skew_of_diverging_clocks_is_at_end():
    trace = build_trace({0: (1.0, 0.0, [], False), 1: (1.1, 0.0, [], False)}, end_time=10.0)
    assert metrics.max_skew(trace) == pytest.approx(1.0)


def test_max_skew_catches_peak_before_adjustment():
    # Clock 1 drifts ahead then is pulled back at t=5; the pre-adjustment peak
    # at t=5 (left limit) must be caught exactly.
    trace = build_trace({0: (1.0, 0.0, [], False), 1: (1.2, 0.0, [(5.0, -1.0)], False)}, end_time=6.0)
    assert metrics.max_skew(trace) == pytest.approx(1.0)
    assert metrics.max_skew(trace, t_start=5.0) == pytest.approx(0.2)


def test_max_skew_respects_window():
    trace = build_trace({0: (1.0, 0.0, [], False), 1: (1.1, 0.0, [], False)}, end_time=10.0)
    assert metrics.max_skew(trace, t_start=0.0, t_end=2.0) == pytest.approx(0.2)


def test_skew_timeseries_lengths_and_values():
    trace = build_trace({0: (1.0, 0.0, [], False), 1: (1.0, 0.5, [], False)}, end_time=10.0)
    series = metrics.skew_timeseries(trace, samples=5)
    assert len(series) == 5
    assert series[0][0] == 0.0 and series[-1][0] == 10.0
    assert all(v == pytest.approx(0.5) for _, v in series)


def test_steady_state_start_requires_all_resyncs():
    trace = build_trace({0: (1.0, 0.0, [], False), 1: (1.0, 0.0, [], False)})
    trace.record_resync(ResyncEvent(pid=0, round=1, time=1.0, logical_before=1, logical_after=1))
    # Process 1 never resynced: steady state never starts.
    assert metrics.steady_state_start(trace) == trace.end_time
    trace.record_resync(ResyncEvent(pid=1, round=1, time=1.4, logical_before=1, logical_after=1))
    assert metrics.steady_state_start(trace) == pytest.approx(1.4)


def test_resync_intervals_and_period_stats():
    trace = build_trace({0: (1.0, 0.0, [], False), 1: (1.0, 0.0, [], False)})
    for pid, times in {0: [1.0, 2.0, 3.1], 1: [1.05, 2.0, 2.9]}.items():
        for k, t in enumerate(times, start=1):
            trace.record_resync(ResyncEvent(pid=pid, round=k, time=t, logical_before=0, logical_after=0))
    assert resync_intervals(trace, 0) == pytest.approx([1.0, 1.1])
    stats = period_stats(trace, skip_first=0)
    assert stats.minimum == pytest.approx(0.9)
    assert stats.maximum == pytest.approx(1.1)
    assert stats.count == 4
    stats_skip = period_stats(trace, skip_first=1)
    assert stats_skip.count == 2


def test_period_stats_empty():
    trace = build_trace({0: (1.0, 0.0, [], False)})
    stats = period_stats(trace)
    assert stats.count == 0
    assert stats.maximum == 0.0


def test_acceptance_spread_by_round():
    trace = build_trace({0: (1.0, 0.0, [], False), 1: (1.0, 0.0, [], False)})
    trace.record_resync(ResyncEvent(pid=0, round=1, time=1.0, logical_before=0, logical_after=0))
    trace.record_resync(ResyncEvent(pid=1, round=1, time=1.007, logical_before=0, logical_after=0))
    trace.record_resync(ResyncEvent(pid=0, round=2, time=2.0, logical_before=0, logical_after=0))
    spreads = acceptance_spread_by_round(trace)
    assert spreads == {1: pytest.approx(0.007)}
    assert max_acceptance_spread(trace) == pytest.approx(0.007)


def test_liveness_checks_contiguous_rounds():
    trace = build_trace({0: (1.0, 0.0, [], False), 1: (1.0, 0.0, [], False)})
    for pid in (0, 1):
        for k in (1, 2, 3):
            trace.record_resync(ResyncEvent(pid=pid, round=k, time=float(k), logical_before=0, logical_after=0))
    assert liveness(trace, 3)
    assert not liveness(trace, 4)


def test_liveness_accepts_late_joiner_starting_round():
    trace = build_trace({0: (1.0, 0.0, [], False)})
    for k in (3, 4, 5):
        trace.record_resync(ResyncEvent(pid=0, round=k, time=float(k), logical_before=0, logical_after=0))
    assert liveness(trace, 5)


def test_liveness_false_without_any_resync():
    trace = build_trace({0: (1.0, 0.0, [], False)})
    assert not liveness(trace, 1)


def test_adjustment_magnitudes_and_backward():
    trace = build_trace({0: (1.0, 0.0, [], False)})
    trace.record_resync(ResyncEvent(pid=0, round=1, time=1.0, logical_before=1.0, logical_after=1.1))
    trace.record_resync(ResyncEvent(pid=0, round=2, time=2.0, logical_before=2.2, logical_after=2.1))
    trace.record_resync(ResyncEvent(pid=0, round=3, time=3.0, logical_before=3.0, logical_after=3.05))
    sizes = adjustment_magnitudes(trace, skip_first=0)
    assert sizes == pytest.approx([0.1, 0.1, 0.05])
    assert metrics.max_backward_adjustment(trace, skip_first=0) == pytest.approx(0.1)
    assert metrics.max_backward_adjustment(trace, skip_first=2) == 0.0


def test_round_completion_time_and_skew_after_round():
    trace = build_trace({0: (1.0, 0.0, [(1.0, 0.5)], False), 1: (1.0, 0.4, [(1.2, 0.1)], False)}, end_time=3.0)
    trace.record_resync(ResyncEvent(pid=0, round=1, time=1.0, logical_before=1.0, logical_after=1.5))
    trace.record_resync(ResyncEvent(pid=1, round=1, time=1.2, logical_before=1.6, logical_after=1.7))
    assert metrics.round_completion_time(trace, 1) == pytest.approx(1.2)
    assert metrics.round_completion_time(trace, 2) is None
    assert metrics.skew_after_round(trace, 2) is None
    # After t=1.2: C0(t) = t + 0.5, C1(t) = t + 0.5 -> skew 0.
    assert metrics.skew_after_round(trace, 1) == pytest.approx(0.0)


def test_message_totals_and_per_round():
    trace = build_trace({0: (1.0, 0.0, [], False)})
    trace.total_messages = 60
    trace.message_stats = {"SignedRound": 40, "SignatureBundle": 20}
    totals = message_totals(trace)
    assert totals["total"] == 60
    assert totals["SignedRound"] == 40
    # No completed rounds: falls back to the raw total.
    assert messages_per_completed_round(trace) == 60
    for k in (1, 2, 3):
        trace.record_resync(ResyncEvent(pid=0, round=k, time=float(k), logical_before=0, logical_after=0))
    assert messages_per_completed_round(trace) == pytest.approx(20.0)
