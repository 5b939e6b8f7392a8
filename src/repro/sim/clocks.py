"""Hardware clock models with bounded drift.

The Srikanth-Toueg model assumes every process ``p`` owns a hardware clock
``H_p`` that it can read but not modify, whose rate with respect to real time
is bounded by the drift parameter ``rho``:

    (t2 - t1) / (1 + rho)  <=  H_p(t2) - H_p(t1)  <=  (1 + rho) * (t2 - t1)

for all ``t2 >= t1``.  The adversary chooses the clock functions subject to
this constraint.  This module provides concrete clock functions:

* :class:`FixedRateClock` -- constant rate, the simplest adversarial choice.
* :class:`PiecewiseLinearClock` -- arbitrary monotone piecewise-linear clocks,
  the general adversarial choice (and the one used to model wander).
* :func:`drifting_clock` -- randomly wandering clock within the drift bound.
* :func:`honest_clock` / :func:`honest_offsets` -- the clocks a scenario gives
  its honest processes, from plain values (the event loop and the vector
  kernel both build from these).

All clocks are strictly increasing and invertible, which the simulator relies
on to translate "wake me up when my clock reads X" timers into real time.
"""

from __future__ import annotations

import bisect
import random
from abc import ABC, abstractmethod
from typing import Iterable, Sequence


def rate_bounds(rho: float) -> tuple[float, float]:
    """Return the (min_rate, max_rate) pair ``(1/(1+rho), 1+rho)`` for drift ``rho``."""
    if rho < 0:
        raise ValueError(f"drift bound rho must be non-negative, got {rho}")
    return 1.0 / (1.0 + rho), 1.0 + rho


class HardwareClock(ABC):
    """A read-only, strictly increasing local clock function ``H(t)``."""

    @abstractmethod
    def read(self, t: float) -> float:
        """Return the local clock value at real time ``t >= 0``."""

    @abstractmethod
    def invert(self, local: float) -> float:
        """Return the real time at which the clock first reads ``local``.

        For values below the clock's value at time 0 this returns 0.0.
        """

    @abstractmethod
    def breakpoints(self) -> Sequence[float]:
        """Real times at which the clock rate changes (exclusive of 0)."""

    @property
    @abstractmethod
    def min_rate(self) -> float:
        """Smallest instantaneous rate taken by this clock."""

    @property
    @abstractmethod
    def max_rate(self) -> float:
        """Largest instantaneous rate taken by this clock."""

    def respects_drift(self, rho: float) -> bool:
        """Whether this clock's rates stay within the drift bound ``rho``."""
        lo, hi = rate_bounds(rho)
        tolerance = 1e-12
        return self.min_rate >= lo - tolerance and self.max_rate <= hi + tolerance


class FixedRateClock(HardwareClock):
    """A clock running at a constant ``rate`` with initial value ``offset``.

    ``H(t) = offset + rate * t``.
    """

    def __init__(self, rate: float = 1.0, offset: float = 0.0) -> None:
        if rate <= 0:
            raise ValueError(f"clock rate must be positive, got {rate}")
        self.rate = float(rate)
        self.offset = float(offset)

    def read(self, t: float) -> float:
        return self.offset + self.rate * t

    def invert(self, local: float) -> float:
        if local <= self.offset:
            return 0.0
        return (local - self.offset) / self.rate

    def breakpoints(self) -> Sequence[float]:
        return ()

    @property
    def min_rate(self) -> float:
        return self.rate

    @property
    def max_rate(self) -> float:
        return self.rate

    def __repr__(self) -> str:
        return f"FixedRateClock(rate={self.rate!r}, offset={self.offset!r})"


class PiecewiseLinearClock(HardwareClock):
    """A strictly increasing piecewise-linear clock.

    The clock is described by an initial value ``offset`` and a sequence of
    ``(start_time, rate)`` segments: the i-th rate applies from its start time
    until the next segment's start time; the last rate extends to infinity.
    The first segment must start at time 0.
    """

    def __init__(self, segments: Iterable[tuple[float, float]], offset: float = 0.0) -> None:
        segs = [(float(t), float(r)) for t, r in segments]
        if not segs:
            raise ValueError("at least one segment is required")
        if segs[0][0] != 0.0:
            raise ValueError("the first segment must start at time 0")
        for (t_prev, _), (t_next, _) in zip(segs, segs[1:]):
            if t_next <= t_prev:
                raise ValueError("segment start times must be strictly increasing")
        for _, rate in segs:
            if rate <= 0:
                raise ValueError(f"clock rates must be positive, got {rate}")
        self.offset = float(offset)
        self._starts = [t for t, _ in segs]
        self._rates = [r for _, r in segs]
        # Precompute the local clock value at the start of each segment.
        self._values = [self.offset]
        for i in range(1, len(segs)):
            dt = self._starts[i] - self._starts[i - 1]
            self._values.append(self._values[-1] + self._rates[i - 1] * dt)

    def read(self, t: float) -> float:
        if t <= 0:
            return self.offset
        i = bisect.bisect_right(self._starts, t) - 1
        return self._values[i] + self._rates[i] * (t - self._starts[i])

    def invert(self, local: float) -> float:
        if local <= self.offset:
            return 0.0
        i = bisect.bisect_right(self._values, local) - 1
        return self._starts[i] + (local - self._values[i]) / self._rates[i]

    def breakpoints(self) -> Sequence[float]:
        return tuple(self._starts[1:])

    @property
    def min_rate(self) -> float:
        return min(self._rates)

    @property
    def max_rate(self) -> float:
        return max(self._rates)

    def __repr__(self) -> str:
        return (
            f"PiecewiseLinearClock(segments={list(zip(self._starts, self._rates))!r}, "
            f"offset={self.offset!r})"
        )


def fastest_clock(rho: float, offset: float = 0.0) -> FixedRateClock:
    """The fastest clock allowed by drift bound ``rho`` (rate ``1+rho``)."""
    return FixedRateClock(rate=1.0 + rho, offset=offset)


def slowest_clock(rho: float, offset: float = 0.0) -> FixedRateClock:
    """The slowest clock allowed by drift bound ``rho`` (rate ``1/(1+rho)``)."""
    return FixedRateClock(rate=1.0 / (1.0 + rho), offset=offset)


def drifting_clock(
    rho: float,
    offset: float = 0.0,
    seed: int = 0,
    segment_length: float = 10.0,
    horizon: float = 10_000.0,
) -> PiecewiseLinearClock:
    """A randomly wandering clock whose rate stays within the drift bound.

    Every ``segment_length`` units of real time a fresh rate is drawn
    uniformly from ``[1/(1+rho), 1+rho]``.  The result models oscillator
    wander while always conforming to the Srikanth-Toueg drift model.
    """
    lo, hi = rate_bounds(rho)
    rng = random.Random(seed)
    if segment_length <= 0:
        raise ValueError("segment_length must be positive")
    segments = []
    t = 0.0
    while t < horizon:
        segments.append((t, rng.uniform(lo, hi)))
        t += segment_length
    if not segments:
        segments = [(0.0, rng.uniform(lo, hi))]
    return PiecewiseLinearClock(segments, offset=offset)


def spread_offsets(n: int, spread: float, seed: int = 0) -> list[float]:
    """Draw ``n`` initial clock offsets uniformly from ``[0, spread]``.

    The first offset is pinned to 0 and (for ``n >= 2``) the last to
    ``spread`` so that the configured initial dispersion is actually realised.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    if spread < 0:
        raise ValueError("spread must be non-negative")
    rng = random.Random(seed)
    if n == 1:
        return [0.0]
    offsets = [0.0, spread] + [rng.uniform(0.0, spread) for _ in range(n - 2)]
    return offsets[:n]


# -- the honest plant of a scenario: one recipe, read by every engine ---------------------


def honest_offsets(count: int, spread: float, seed: int) -> list[float]:
    """Initial offsets of the ``count`` honest clocks of a run seeded ``seed``."""
    return spread_offsets(count, spread, seed=seed + 13)


def honest_rate(clock_mode: str, index: int, rho: float) -> float:
    """Rate of honest clock ``index`` under a fixed-rate ``clock_mode``.

    ``"nominal"`` runs every clock at rate 1; ``"extreme"`` alternates the
    fastest and the slowest admissible rate by index parity.
    """
    if clock_mode == "nominal":
        return 1.0
    lo, hi = rate_bounds(rho)
    return hi if index % 2 == 0 else lo


def honest_clock(
    clock_mode: str,
    index: int,
    offset: float,
    *,
    rho: float,
    seed: int,
    period: float,
    tdel: float,
    horizon: float,
) -> HardwareClock:
    """Hardware clock of honest process ``index``.

    Fixed-rate modes follow :func:`honest_rate`; ``"random"`` wanders within
    the drift bound, one ``Random(seed * 1009 + index)`` draw per segment of
    ``max(period, 4 * tdel)``, out to 1.2 run horizons.
    """
    if clock_mode != "random":
        return FixedRateClock(rate=honest_rate(clock_mode, index, rho), offset=offset)
    return drifting_clock(
        rho,
        offset=offset,
        seed=seed * 1009 + index,
        segment_length=max(period, 4.0 * tdel),
        horizon=horizon * 1.2 + 1.0,
    )
