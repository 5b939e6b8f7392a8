"""Exact queries over an execution trace.

Honest logical clocks in a trace are piecewise-linear functions of real time
whose breakpoints (hardware-clock rate changes and adjustment instants) are
all recorded, so worst-case skew can be computed *exactly* by evaluating at
breakpoints (taking both the left limit and the right value at each, because
adjustments are jumps).

A run's measured numbers are not computed here: the recorder streams them
(:mod:`repro.sim.recorder`), at either trace level.  These are the queries
that read a full trace's *history* -- skew from a given instant on, when a
round completed, the ablation's backward corrections -- for the experiments,
examples and plots that keep one.  ``tests/oracle.py`` holds the post-hoc
measurement of the rest, as the independent check on the recorder.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..sim.trace import Trace


def _evaluation_points(trace: Trace, pids: Sequence[int], t_start: float, t_end: float) -> list[float]:
    points = {t_start, t_end}
    for pid in pids:
        for t in trace.processes[pid].breakpoints():
            if t_start <= t <= t_end:
                points.add(t)
    return sorted(points)


def skew_at(trace: Trace, t: float, pids: Optional[Sequence[int]] = None, before: bool = False) -> float:
    """Maximum pairwise difference of logical clocks at real time ``t``.

    With ``before=True`` the left limits (values just before any jump at
    ``t``) are used.
    """
    if pids is None:
        pids = trace.honest_pids()
    values = []
    for pid in pids:
        ptrace = trace.processes[pid]
        values.append(ptrace.logical_before(t) if before else ptrace.logical_at(t))
    if not values:
        return 0.0
    return max(values) - min(values)


def max_skew(
    trace: Trace,
    t_start: float = 0.0,
    t_end: Optional[float] = None,
    pids: Optional[Sequence[int]] = None,
) -> float:
    """Exact worst-case skew among the given processes over ``[t_start, t_end]``."""
    if pids is None:
        pids = trace.honest_pids()
    if not pids:
        return 0.0
    if t_end is None:
        t_end = trace.end_time
    worst = 0.0
    for t in _evaluation_points(trace, pids, t_start, t_end):
        worst = max(worst, skew_at(trace, t, pids))
        if t > t_start:
            # The left limit captures the value just before any jump at t; the
            # state strictly before the measurement interval does not count.
            worst = max(worst, skew_at(trace, t, pids, before=True))
    return worst


def skew_timeseries(
    trace: Trace,
    samples: int = 200,
    t_start: float = 0.0,
    t_end: Optional[float] = None,
    pids: Optional[Sequence[int]] = None,
) -> list[tuple[float, float]]:
    """Skew sampled at ``samples`` evenly spaced times (for plots and examples)."""
    if t_end is None:
        t_end = trace.end_time
    if samples < 2 or t_end <= t_start:
        return [(t_start, skew_at(trace, t_start, pids))]
    step = (t_end - t_start) / (samples - 1)
    return [
        (t_start + i * step, skew_at(trace, t_start + i * step, pids)) for i in range(samples)
    ]


def steady_state_start(trace: Trace, pids: Optional[Sequence[int]] = None) -> float:
    """Real time at which every honest process has resynchronized at least once.

    Precision guarantees are stated for steady state; before this time clocks
    simply carry their initial offsets.  ``pids`` restricts the set of
    processes considered (e.g. to exclude a late joiner).
    """
    if pids is None:
        pids = trace.honest_pids()
    firsts = []
    for pid in pids:
        ptrace = trace.processes[pid]
        if not ptrace.resyncs:
            return trace.end_time
        firsts.append(ptrace.resyncs[0].time)
    return max(firsts) if firsts else trace.end_time


def round_completion_time(trace: Trace, round_: int, pids: Optional[Sequence[int]] = None) -> Optional[float]:
    """Real time at which every honest process had accepted ``round_`` (None if it never happened)."""
    if pids is None:
        pids = trace.honest_pids()
    times = []
    for pid in pids:
        ptrace = trace.processes[pid]
        accepted = [e.time for e in ptrace.resyncs if e.round == round_]
        if not accepted:
            return None
        times.append(min(accepted))
    return max(times) if times else None


def skew_after_round(trace: Trace, round_: int, pids: Optional[Sequence[int]] = None) -> Optional[float]:
    """Exact worst-case skew from the completion of ``round_`` onwards.

    Used for start-up scenarios, where the ordinary steady-state bound only
    applies once the first full resynchronization round has completed.
    """
    t0 = round_completion_time(trace, round_, pids=pids)
    if t0 is None:
        return None
    return max_skew(trace, t_start=t0, pids=pids)


# -- resynchronization structure ------------------------------------------------------


@dataclass(frozen=True)
class PeriodStats:
    """Extremes of the observed resynchronization intervals over all honest processes."""

    minimum: float
    maximum: float
    count: int

    @classmethod
    def empty(cls) -> "PeriodStats":
        return cls(minimum=float("inf"), maximum=0.0, count=0)


def max_backward_adjustment(trace: Trace, skip_first: int = 1) -> float:
    """Largest backward correction applied by any honest process (0 if clocks are monotone)."""
    worst = 0.0
    for ptrace in trace.honest():
        for event in ptrace.resyncs[skip_first:]:
            worst = max(worst, -min(0.0, event.adjustment))
    return worst
