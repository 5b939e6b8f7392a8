"""The post-hoc measurement oracle: every measured number, recomputed from a full trace.

The product measures an execution once, by streaming: the recorder
(:class:`~repro.sim.recorder.OnlineMetricsRecorder`) evaluates the logical
clocks at every breakpoint as the events pass.  This module measures the same
execution a different way, after the fact, from the
:class:`~repro.sim.trace.Trace` a ``trace_level="full"`` run keeps: it
collects every breakpoint of every honest clock, evaluates both sides of each
adjustment jump, and folds the samples.  Same events, a different algorithm,
so a bug in the streaming fold shows up as a mismatch in
``tests/test_recorder_parity.py``.

Honest logical clocks are piecewise-linear functions of real time whose
breakpoints (hardware-clock rate changes and adjustment instants) are all
recorded, so every worst-case quantity here is exact, not sampled.

:func:`measure_result` is the oracle's whole :class:`ScenarioResult`-shaped
measurement of one run; the helpers below it are the pieces, each pinned by
its own unit tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.analysis.envelope import AccuracySummary, window_rate_extremes
from repro.analysis.metrics import PeriodStats, max_skew, steady_state_start
from repro.analysis.optimality import ExecutionMeasurements, GuaranteeReport, verify_measurements
from repro.core import bounds as bounds_mod
from repro.core.params import SyncParams
from repro.sim.trace import ProcessTrace, Trace

# -- skew and the resynchronization structure ---------------------------------------------


def steady_state_skew(trace: Trace, pids: Optional[Sequence[int]] = None) -> float:
    """Exact worst-case skew from the end of the first resynchronization on."""
    return max_skew(trace, t_start=steady_state_start(trace), pids=pids)


def resync_intervals(trace: Trace, pid: int) -> list[float]:
    """Real-time gaps between consecutive resynchronizations of one process."""
    times = trace.processes[pid].resync_times()
    return [b - a for a, b in zip(times, times[1:])]


def period_stats(trace: Trace, skip_first: int = 1) -> PeriodStats:
    """Min/max resynchronization interval across honest processes.

    ``skip_first`` drops the first interval(s), which include the start-up
    transient (initial offsets) and are covered by the start-up bound instead.
    """
    minimum = float("inf")
    maximum = 0.0
    count = 0
    for pid in trace.honest_pids():
        intervals = resync_intervals(trace, pid)[skip_first:]
        for value in intervals:
            minimum = min(minimum, value)
            maximum = max(maximum, value)
            count += 1
    if count == 0:
        return PeriodStats.empty()
    return PeriodStats(minimum=minimum, maximum=maximum, count=count)


def acceptance_spread_by_round(trace: Trace) -> dict[int, float]:
    """For each round accepted by every honest process, the real-time spread of acceptances."""
    honest = trace.honest()
    if not honest:
        return {}
    per_round: dict[int, list[float]] = {}
    for ptrace in honest:
        for event in ptrace.resyncs:
            per_round.setdefault(event.round, []).append(event.time)
    return {round_: max(times) - min(times) for round_, times in per_round.items() if len(times) == len(honest)}


def max_acceptance_spread(trace: Trace) -> float:
    """Largest acceptance spread over all fully accepted rounds."""
    spreads = acceptance_spread_by_round(trace)
    return max(spreads.values()) if spreads else 0.0


def liveness(trace: Trace, expected_round: int) -> bool:
    """Whether every honest process accepted every round up to ``expected_round``."""
    for ptrace in trace.honest():
        accepted = set(e.round for e in ptrace.resyncs)
        if not accepted:
            return False
        first = max(min(accepted), 1)
        needed = set(range(first, expected_round + 1))
        if not needed.issubset(accepted):
            return False
    return True


def adjustment_magnitudes(trace: Trace, skip_first: int = 1) -> list[float]:
    """Absolute sizes of all honest clock adjustments (optionally skipping the first)."""
    sizes = []
    for ptrace in trace.honest():
        for event in ptrace.resyncs[skip_first:]:
            sizes.append(abs(event.adjustment))
    return sizes


def message_totals(trace: Trace) -> dict[str, int]:
    """Total messages sent, by message type, plus the overall count."""
    totals = dict(trace.message_stats)
    totals["total"] = trace.total_messages
    return totals


def messages_per_completed_round(trace: Trace) -> float:
    """Average number of messages per fully completed round (all senders included)."""
    completed = trace.min_completed_round()
    if completed <= 0:
        return float(trace.total_messages)
    return trace.total_messages / completed


# -- accuracy (rate envelope) ----------------------------------------------------------------


def _clock_samples(ptrace: ProcessTrace, t_start: float, t_end: float) -> list[tuple[float, float]]:
    """(time, logical value) pairs at all breakpoints, with both sides of each jump."""
    points = {t_start, t_end}
    for t in ptrace.breakpoints():
        if t_start <= t <= t_end:
            points.add(t)
    samples: list[tuple[float, float]] = []
    for t in sorted(points):
        before = ptrace.logical_before(t)
        after = ptrace.logical_at(t)
        samples.append((t, before))
        if after != before:
            samples.append((t, after))
    return samples


def long_run_rate(ptrace: ProcessTrace, t_start: float, t_end: float) -> float:
    """Average rate of the logical clock over ``[t_start, t_end]``."""
    if t_end <= t_start:
        raise ValueError("t_end must exceed t_start")
    return (ptrace.logical_at(t_end) - ptrace.logical_at(t_start)) / (t_end - t_start)


@dataclass(frozen=True)
class RateExtremes:
    """Extreme average rates over windows of at least ``min_window`` length."""

    slowest: float
    fastest: float
    min_window: float


def _pairwise_window_extremes(
    times: Sequence[float], values: Sequence[float], min_window: float
) -> Optional[tuple[float, float]]:
    """Quadratic reference: (slowest, fastest) window rates, or None if no pair fits.

    The ground truth the hull pass (:func:`repro.analysis.envelope.window_rate_extremes`)
    is property-tested against.
    """
    slowest = float("inf")
    fastest = float("-inf")
    count = len(times)
    for i in range(count):
        t1 = times[i]
        v1 = values[i]
        for j in range(i + 1, count):
            width = times[j] - t1
            if width < min_window or width <= 0:
                continue
            rate = (values[j] - v1) / width
            slowest = min(slowest, rate)
            fastest = max(fastest, rate)
    if slowest == float("inf"):
        return None
    return (slowest, fastest)


def rate_extremes(ptrace: ProcessTrace, t_start: float, t_end: float, min_window: float) -> RateExtremes:
    """Exact extreme window rates of one logical clock.

    Because the clock is piecewise linear, the extreme average rates over
    windows of length at least ``min_window`` are attained with both window
    endpoints at breakpoints (or at the interval ends), so the hull pass over
    the trace's breakpoint samples is exact.
    """
    samples = _clock_samples(ptrace, t_start, t_end)
    extremes = window_rate_extremes([t for t, _ in samples], [v for _, v in samples], min_window)
    if extremes is None:
        # Window longer than the run: fall back to the long-run rate.
        rate = long_run_rate(ptrace, t_start, t_end)
        return RateExtremes(slowest=rate, fastest=rate, min_window=min_window)
    return RateExtremes(slowest=extremes[0], fastest=extremes[1], min_window=min_window)


@dataclass(frozen=True)
class EnvelopeFit:
    """Smallest additive constants for a two-sided linear rate envelope.

    For all ``t1 <= t2`` in the measured interval::

        rate_low * (t2 - t1) - a  <=  C(t2) - C(t1)  <=  rate_high * (t2 - t1) + b
    """

    rate_low: float
    rate_high: float
    a: float
    b: float


def fit_envelope(
    ptrace: ProcessTrace,
    rate_low: float,
    rate_high: float,
    t_start: float,
    t_end: float,
) -> EnvelopeFit:
    """Compute the minimal ``(a, b)`` making the envelope hold over ``[t_start, t_end]``.

    Uses the drawdown/run-up characterisation: with ``g(t) = C(t) - rate_low*t``
    the constant ``a`` is the maximum drawdown of ``g``; with
    ``h(t) = C(t) - rate_high*t`` the constant ``b`` is the maximum rise of
    ``h``.  Both are computed in one pass over breakpoint samples.
    """
    samples = _clock_samples(ptrace, t_start, t_end)
    max_g = float("-inf")
    max_drawdown = 0.0
    min_h = float("inf")
    max_rise = 0.0
    for t, value in samples:
        g = value - rate_low * t
        h = value - rate_high * t
        max_g = max(max_g, g)
        max_drawdown = max(max_drawdown, max_g - g)
        min_h = min(min_h, h)
        max_rise = max(max_rise, h - min_h)
    return EnvelopeFit(rate_low=rate_low, rate_high=rate_high, a=max_drawdown, b=max_rise)


def accuracy_summary(
    trace: Trace,
    rate_low: float,
    rate_high: float,
    t_start: Optional[float] = None,
    t_end: Optional[float] = None,
    min_window: Optional[float] = None,
    pids: Optional[Sequence[int]] = None,
) -> AccuracySummary:
    """Aggregate accuracy metrics for the honest processes of a trace."""
    if pids is None:
        pids = trace.honest_pids()
    if t_start is None:
        t_start = 0.0
    if t_end is None:
        t_end = trace.end_time
    if min_window is None:
        min_window = max((t_end - t_start) / 4.0, 1e-9)
    slowest_lr = float("inf")
    fastest_lr = float("-inf")
    slowest_win = float("inf")
    fastest_win = float("-inf")
    worst_a = 0.0
    worst_b = 0.0
    worst_offset = 0.0
    for pid in pids:
        ptrace = trace.processes[pid]
        rate = long_run_rate(ptrace, t_start, t_end)
        slowest_lr = min(slowest_lr, rate)
        fastest_lr = max(fastest_lr, rate)
        extremes = rate_extremes(ptrace, t_start, t_end, min_window)
        slowest_win = min(slowest_win, extremes.slowest)
        fastest_win = max(fastest_win, extremes.fastest)
        fit = fit_envelope(ptrace, rate_low, rate_high, t_start, t_end)
        worst_a = max(worst_a, fit.a)
        worst_b = max(worst_b, fit.b)
        for t, value in _clock_samples(ptrace, t_start, t_end):
            worst_offset = max(worst_offset, abs(value - t))
    return AccuracySummary(
        slowest_long_run_rate=slowest_lr,
        fastest_long_run_rate=fastest_lr,
        slowest_window_rate=slowest_win,
        fastest_window_rate=fastest_win,
        envelope_a=worst_a,
        envelope_b=worst_b,
        worst_offset_from_real_time=worst_offset,
    )


# -- guarantee verification ------------------------------------------------------------------


def measure_trace(trace: Trace, params: SyncParams, expected_round: int = 0) -> ExecutionMeasurements:
    """Exact guarantee-relevant measurements of a full execution trace."""
    adjustments = adjustment_magnitudes(trace)
    long_run_rates: Optional[tuple[float, float]] = None
    start = steady_state_start(trace)
    if trace.end_time - start > params.period:
        rates = [long_run_rate(ptrace, start, trace.end_time) for ptrace in trace.honest()]
        long_run_rates = (min(rates, default=math.inf), max(rates, default=-math.inf))
    return ExecutionMeasurements(
        steady_skew=steady_state_skew(trace),
        acceptance_spread=max_acceptance_spread(trace),
        period_stats=period_stats(trace),
        max_adjustment=max(adjustments) if adjustments else None,
        min_completed_round=trace.min_completed_round(),
        liveness_ok=liveness(trace, expected_round) if expected_round > 0 else None,
        long_run_rates=long_run_rates,
    )


def verify_guarantees(
    trace: Trace,
    params: SyncParams,
    algorithm: str = bounds_mod.AUTH,
    expected_round: int = 0,
    slack: float = 1e-9,
) -> GuaranteeReport:
    """Check precision, period, acceptance spread, adjustment size, liveness and accuracy.

    ``expected_round`` > 0 additionally requires every honest process to have
    accepted all rounds up to that number (liveness).  ``slack`` is a tiny
    numerical tolerance added to every bound.  The comparison against the
    bounds is the product's own :func:`~repro.analysis.optimality.verify_measurements`;
    only the measurements are the oracle's.
    """
    measured = measure_trace(trace, params, expected_round=expected_round)
    return verify_measurements(measured, params, algorithm=algorithm, expected_round=expected_round, slack=slack)


# -- one run, measured like a result -----------------------------------------------------------


@dataclass(frozen=True)
class OracleMeasurements:
    """The oracle's values for the measured fields of a :class:`~repro.workloads.scenarios.ScenarioResult`."""

    precision: float
    precision_overall: float
    period_stats: PeriodStats
    acceptance_spread: float
    accuracy: Optional[AccuracySummary]
    completed_round: int
    total_messages: int
    messages_per_round: float
    effective_horizon: float
    guarantees: Optional[GuaranteeReport]


def measure_result(
    trace: Trace, params: SyncParams, expected_round: int, algorithm: Optional[str]
) -> OracleMeasurements:
    """Measure a finished run from its trace alone.

    ``algorithm`` names the bounds to verify against (``"auth"`` / ``"echo"``),
    or ``None`` when the run's guarantees are not checked.  Accuracy is
    reported exactly when the steady interval is longer than one period.
    """
    measured = measure_trace(trace, params, expected_round=expected_round)
    accuracy = None
    if measured.long_run_rates is not None:
        accuracy = accuracy_summary(
            trace,
            rate_low=params.min_rate,
            rate_high=params.max_rate,
            t_start=steady_state_start(trace),
            t_end=trace.end_time,
        )
    guarantees = None
    if algorithm is not None:
        guarantees = verify_measurements(measured, params, algorithm=algorithm, expected_round=expected_round)
    return OracleMeasurements(
        precision=measured.steady_skew,
        precision_overall=max_skew(trace),
        period_stats=measured.period_stats,
        acceptance_spread=measured.acceptance_spread,
        accuracy=accuracy,
        completed_round=measured.min_completed_round,
        total_messages=trace.total_messages,
        messages_per_round=messages_per_completed_round(trace),
        effective_horizon=trace.end_time,
        guarantees=guarantees,
    )
