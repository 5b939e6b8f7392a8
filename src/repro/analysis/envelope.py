"""Accuracy (rate-envelope) measurements.

The accuracy of a synchronized clock is about how it tracks *real time*:
the paper's optimality result says the logical clocks' rate envelope is the
hardware envelope ``[1/(1+rho), 1+rho]`` up to additive constants that do not
grow with time, and with an excess that vanishes as the period grows -- in
particular the envelope does not depend on ``f`` or ``n``.

The recorder (:mod:`repro.sim.recorder`) streams the long-run rates and the
smallest additive envelope constants.  This module holds what a result's
:class:`AccuracySummary` adds on top: the exact extreme average rates over
all windows longer than a minimum width, derived once per result from the
breakpoint samples the recorder retains.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence


def window_rate_extremes(
    times: Sequence[float], values: Sequence[float], min_window: float
) -> Optional[tuple[float, float]]:
    """Exact (slowest, fastest) average rates over windows >= ``min_window``.

    ``times`` must be nondecreasing (both sides of a jump appear as two
    samples at the same time).  Returns ``None`` when no pair of samples is
    at least ``min_window`` apart.  The quadratic pair scan it replaces
    lives on in ``tests/oracle.py`` as the ground truth it is
    property-tested against.

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
    process; the minimum window is a quarter of ``[t_start, t_end]``, and a
    process whose samples admit no window of that width contributes its
    long-run rate.  Its one caller is
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
