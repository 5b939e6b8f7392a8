"""Accuracy (rate-envelope) measurements.

The accuracy of a synchronized clock is about how it tracks *real time*:
the paper's optimality result says the logical clocks' rate envelope is the
hardware envelope ``[1/(1+rho), 1+rho]`` up to additive constants that do not
grow with time, and with an excess that vanishes as the period grows -- in
particular the envelope does not depend on ``f`` or ``n``.

This module measures, exactly (over logical-clock breakpoints):

* the long-run rate of each honest logical clock,
* the extreme rates over all windows longer than a minimum width,
* the smallest additive constants ``(a, b)`` for which a given rate envelope
  holds over the whole run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..sim.trace import ProcessTrace, Trace


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

    Kept as the ground truth the hull pass is property-tested against.
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


def window_rate_extremes(
    times: Sequence[float], values: Sequence[float], min_window: float
) -> Optional[tuple[float, float]]:
    """Exact (slowest, fastest) average rates over windows >= ``min_window``.

    ``times`` must be nondecreasing (both sides of a jump appear as two
    samples at the same time).  Returns ``None`` when no pair of samples is
    at least ``min_window`` apart.  Both observation paths -- the post-hoc
    :func:`rate_extremes` and the streaming recorder -- call this one
    function on the same breakpoint samples, so their window-rate extremes
    are float-for-float identical by construction.

    One maximum-average-segment sweep finds both extremes: walk the right
    endpoint in time order while folding every sample that has fallen at
    least ``min_window`` behind it into two convex hulls of candidate left
    endpoints -- the lower hull for the fastest window, the upper hull for
    the slowest.  The best left endpoint for a given right endpoint is the
    tangent vertex of the matching hull (the slope along a convex chain seen
    from a point on the right is unimodal), found by binary search.  Work is
    O(k log h) for k samples and hull size h instead of the quadratic pair
    scan, and the only state beyond the samples is hull-bounded.  The upper
    hull is the lower hull of the negated values with every comparison
    mirrored; negation is exact under round-to-nearest, so the slowest rate
    is, bit for bit, the negated fastest rate of the negated values.
    """
    count = len(times)
    fastest: Optional[float] = None
    negated_slowest: Optional[float] = None
    low_t: list[float] = []  # lower hull: left endpoints of the fastest window
    low_v: list[float] = []
    up_t: list[float] = []  # upper hull: left endpoints of the slowest window
    up_v: list[float] = []
    include = 0  # next sample to become an eligible left endpoint
    for j in range(count):
        tj = times[j]
        vj = values[j]
        # Eligibility must use the same float expressions as the pair scan
        # (``width >= min_window`` and ``width > 0`` -- the positive-width
        # guard matters when min_window <= 0), not algebraic rearrangements.
        # Widths are nonincreasing in ``include``, so the first ineligible
        # sample ends the scan for this right endpoint.
        while include < count:
            t = times[include]
            width = tj - t
            if width < min_window or width <= 0:
                break
            v = values[include]
            include += 1
            # Of two equal-time points only the lower can be the fastest
            # window's left end (and only the higher the slowest's).
            if not (low_t and t == low_t[-1] and v >= low_v[-1]):
                if low_t and t == low_t[-1]:
                    low_t.pop()
                    low_v.pop()
                while len(low_t) >= 2:
                    # Pop the middle point when it lies on or above the chord.
                    cross = (low_t[-1] - low_t[-2]) * (v - low_v[-2]) - (
                        low_v[-1] - low_v[-2]
                    ) * (t - low_t[-2])
                    if cross <= 0.0:
                        low_t.pop()
                        low_v.pop()
                    else:
                        break
                low_t.append(t)
                low_v.append(v)
            if not (up_t and t == up_t[-1] and v <= up_v[-1]):
                if up_t and t == up_t[-1]:
                    up_t.pop()
                    up_v.pop()
                while len(up_t) >= 2:
                    # Pop the middle point when it lies on or below the chord.
                    cross = (up_t[-1] - up_t[-2]) * (v - up_v[-2]) - (
                        up_v[-1] - up_v[-2]
                    ) * (t - up_t[-2])
                    if cross >= 0.0:
                        up_t.pop()
                        up_v.pop()
                    else:
                        break
                up_t.append(t)
                up_v.append(v)
        if not low_t:
            continue  # both hulls fill together: nothing is eligible yet
        lo = 0
        hi = len(low_t) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            # slope(mid+1 -> j) >= slope(mid -> j): keep climbing right.
            if (vj - low_v[mid]) * (tj - low_t[mid + 1]) <= (vj - low_v[mid + 1]) * (tj - low_t[mid]):
                lo = mid + 1
            else:
                hi = mid
        # Evaluate the binary-search landing and its neighbours so a
        # rounding-perturbed comparison cannot cost the true optimum.
        for k in (lo - 1, lo, lo + 1):
            if 0 <= k < len(low_t):
                rate = (vj - low_v[k]) / (tj - low_t[k])
                if fastest is None or rate > fastest:
                    fastest = rate
        lo = 0
        hi = len(up_t) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            # slope(mid+1 -> j) <= slope(mid -> j): keep descending right.
            if (vj - up_v[mid]) * (tj - up_t[mid + 1]) >= (vj - up_v[mid + 1]) * (tj - up_t[mid]):
                lo = mid + 1
            else:
                hi = mid
        for k in (lo - 1, lo, lo + 1):
            if 0 <= k < len(up_t):
                # The negated pass's quotient, so a zero rate keeps its sign.
                rate = (up_v[k] - vj) / (tj - up_t[k])
                if negated_slowest is None or rate > negated_slowest:
                    negated_slowest = rate
    if fastest is None:
        return None
    return (-negated_slowest, fastest)


def combined_window_extremes(
    samples: Sequence[tuple], t_start: float, t_end: float
) -> Optional[tuple[float, float]]:
    """Extreme window rates over a collection of per-process retained samples.

    ``samples`` holds one ``(times, values, long_run_rate)`` triple per
    process; the minimum window is a quarter of ``[t_start, t_end]`` -- the
    same availability rule :func:`accuracy_summary` applies -- and a process
    whose samples admit no window of that width contributes its long-run rate
    (the fallback :func:`rate_extremes` uses).  Its one caller is
    :meth:`~repro.sim.recorder.OnlineMetricsSummary.compact`, once per
    result, single cell or merged, so a merged summary's window rates are
    float-for-float what a single recorder observing every process over the
    combined interval would report.  Returns ``None`` when
    the interval is empty or no process contributed samples.
    """
    if t_end <= t_start or not samples:
        return None
    min_window = max((t_end - t_start) / 4.0, 1e-9)
    slowest = float("inf")
    fastest = float("-inf")
    for times, values, rate in samples:
        extremes = window_rate_extremes(times, values, min_window)
        if extremes is None:
            extremes = (rate, rate)
        if extremes[0] < slowest:
            slowest = extremes[0]
        if extremes[1] > fastest:
            fastest = extremes[1]
    if slowest == float("inf"):
        return None
    return (slowest, fastest)


def rate_extremes(ptrace: ProcessTrace, t_start: float, t_end: float, min_window: float) -> RateExtremes:
    """Exact extreme window rates of one logical clock.

    Because the clock is piecewise linear, the extreme average rates over
    windows of length at least ``min_window`` are attained with both window
    endpoints at breakpoints (or at the interval ends), so a pass over the
    breakpoint samples is exact; :func:`window_rate_extremes` performs it
    with a convex-hull sweep instead of the quadratic pair scan.
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


@dataclass(frozen=True)
class AccuracySummary:
    """Accuracy measurements aggregated over all honest processes."""

    slowest_long_run_rate: float
    fastest_long_run_rate: float
    slowest_window_rate: float
    fastest_window_rate: float
    envelope_a: float
    envelope_b: float
    worst_offset_from_real_time: float


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
