"""Guarantee verification: does an execution respect the paper's theorems?

:func:`verify_guarantees` compares the exact measurements of a trace with the
analytic bounds of :mod:`repro.core.bounds` and returns a structured verdict.
It is the workhorse of the integration tests and of experiments E1/E5/E10:
under every tolerated adversary the verdict must be all-green, and above the
resilience threshold the breaking attacks must produce a red verdict
(otherwise the experiment itself is broken).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from ..core import bounds as bounds_mod
from ..core.params import SyncParams
from ..sim.recorder import OnlineMetricsSummary
from ..sim.trace import Trace
from . import metrics
from .envelope import long_run_rate


@dataclass(frozen=True)
class GuaranteeCheck:
    """One guarantee: its measured value, its bound, and whether it holds."""

    name: str
    measured: float
    bound: float
    holds: bool
    direction: str = "<="

    def describe(self) -> str:
        return f"{self.name}: measured {self.measured:.6g} {self.direction} bound {self.bound:.6g}: {'OK' if self.holds else 'VIOLATED'}"


@dataclass
class GuaranteeReport:
    """Verdict over all guarantees checked for one execution."""

    algorithm: str
    params: SyncParams
    checks: list[GuaranteeCheck] = field(default_factory=list)

    @property
    def all_hold(self) -> bool:
        return all(check.holds for check in self.checks)

    def violated(self) -> list[GuaranteeCheck]:
        return [check for check in self.checks if not check.holds]

    def by_name(self, name: str) -> GuaranteeCheck:
        for check in self.checks:
            if check.name == name:
                return check
        raise KeyError(name)

    def describe(self) -> str:
        lines = [f"Guarantees for {self.algorithm} ({self.params.describe()}):"]
        lines.extend("  " + check.describe() for check in self.checks)
        return "\n".join(lines)


@dataclass(frozen=True)
class ExecutionMeasurements:
    """The measured quantities guarantee verification compares against bounds.

    Both observation paths produce this: :func:`measure_trace` computes it
    post hoc from a full :class:`~repro.sim.trace.Trace`, and
    :func:`measure_summary` reads it from a streamed
    :class:`~repro.sim.recorder.OnlineMetricsSummary`.  The two agree
    float-for-float for the same execution, so the verdicts agree too.
    """

    steady_skew: float
    acceptance_spread: float
    period_stats: metrics.PeriodStats
    #: Largest |adjustment| over honest resyncs (first skipped); None if none.
    max_adjustment: Optional[float]
    min_completed_round: int
    #: Whether every honest process accepted all needed rounds; None when
    #: liveness was not evaluated (``expected_round`` == 0).
    liveness_ok: Optional[bool]
    #: (slowest, fastest) long-run logical rates over the steady interval;
    #: None when the steady interval is shorter than one period.
    long_run_rates: Optional[tuple[float, float]]


def measure_trace(trace: Trace, params: SyncParams, expected_round: int = 0) -> ExecutionMeasurements:
    """Exact guarantee-relevant measurements of a full execution trace."""
    adjustments = metrics.adjustment_magnitudes(trace)
    long_run_rates: Optional[tuple[float, float]] = None
    start = metrics.steady_state_start(trace)
    if trace.end_time - start > params.period:
        rates = [long_run_rate(ptrace, start, trace.end_time) for ptrace in trace.honest()]
        long_run_rates = (min(rates, default=math.inf), max(rates, default=-math.inf))
    return ExecutionMeasurements(
        steady_skew=metrics.steady_state_skew(trace),
        acceptance_spread=metrics.max_acceptance_spread(trace),
        period_stats=metrics.period_stats(trace),
        max_adjustment=max(adjustments) if adjustments else None,
        min_completed_round=trace.min_completed_round(),
        liveness_ok=metrics.liveness(trace, expected_round) if expected_round > 0 else None,
        long_run_rates=long_run_rates,
    )


def period_stats_from_summary(summary: OnlineMetricsSummary) -> metrics.PeriodStats:
    """The streamed period extremes as a :class:`~repro.analysis.metrics.PeriodStats`."""
    if not summary.period_count:
        return metrics.PeriodStats.empty()
    return metrics.PeriodStats(minimum=summary.period_min, maximum=summary.period_max, count=summary.period_count)


def measure_summary(
    summary: OnlineMetricsSummary,
    params: SyncParams,
    expected_round: int = 0,
) -> ExecutionMeasurements:
    """Guarantee-relevant measurements read off a streamed metrics summary."""
    return ExecutionMeasurements(
        steady_skew=summary.steady_skew,
        acceptance_spread=summary.acceptance_spread,
        period_stats=period_stats_from_summary(summary),
        max_adjustment=summary.max_adjustment,
        min_completed_round=summary.completed_round,
        liveness_ok=summary.liveness(expected_round) if expected_round > 0 else None,
        long_run_rates=summary.long_run_rates(params.period),
    )


def verify_measurements(
    measured: ExecutionMeasurements,
    params: SyncParams,
    algorithm: str = bounds_mod.AUTH,
    expected_round: int = 0,
    slack: float = 1e-9,
) -> GuaranteeReport:
    """Compare measured quantities against the paper's analytic bounds."""
    report = GuaranteeReport(algorithm=algorithm, params=params)
    checks = report.checks

    theoretical = bounds_mod.theoretical_bounds(params, algorithm)

    # Precision (steady state).
    checks.append(
        GuaranteeCheck(
            name="precision",
            measured=measured.steady_skew,
            bound=theoretical.precision + slack,
            holds=measured.steady_skew <= theoretical.precision + slack,
        )
    )

    # Acceptance spread (relay property in action).
    checks.append(
        GuaranteeCheck(
            name="acceptance_spread",
            measured=measured.acceptance_spread,
            bound=theoretical.sigma + slack,
            holds=measured.acceptance_spread <= theoretical.sigma + slack,
        )
    )

    # Resynchronization period bounds.
    stats = measured.period_stats
    if stats.count > 0:
        checks.append(
            GuaranteeCheck(
                name="period_min",
                measured=stats.minimum,
                bound=theoretical.beta_min - slack,
                holds=stats.minimum >= theoretical.beta_min - slack,
                direction=">=",
            )
        )
        checks.append(
            GuaranteeCheck(
                name="period_max",
                measured=stats.maximum,
                bound=theoretical.beta_max + slack,
                holds=stats.maximum <= theoretical.beta_max + slack,
            )
        )

    # Adjustment magnitude.
    if measured.max_adjustment is not None:
        checks.append(
            GuaranteeCheck(
                name="max_adjustment",
                measured=measured.max_adjustment,
                bound=theoretical.max_adjustment + slack,
                holds=measured.max_adjustment <= theoretical.max_adjustment + slack,
            )
        )

    # Liveness.
    if expected_round > 0 and measured.liveness_ok is not None:
        checks.append(
            GuaranteeCheck(
                name="liveness",
                measured=float(measured.min_completed_round),
                bound=float(expected_round),
                holds=measured.liveness_ok,
                direction=">=",
            )
        )

    # Accuracy: long-run logical clock rate within the analytic rate bounds.
    if measured.long_run_rates is not None:
        slowest, fastest = measured.long_run_rates
        checks.append(
            GuaranteeCheck(
                name="accuracy_rate_max",
                measured=fastest,
                bound=theoretical.rate_max + slack,
                holds=fastest <= theoretical.rate_max + slack,
            )
        )
        checks.append(
            GuaranteeCheck(
                name="accuracy_rate_min",
                measured=slowest,
                bound=theoretical.rate_min - slack,
                holds=slowest >= theoretical.rate_min - slack,
                direction=">=",
            )
        )

    return report


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
    numerical tolerance added to every bound.
    """
    measured = measure_trace(trace, params, expected_round=expected_round)
    return verify_measurements(measured, params, algorithm=algorithm, expected_round=expected_round, slack=slack)


def verify_summary(
    summary: OnlineMetricsSummary,
    params: SyncParams,
    algorithm: str = bounds_mod.AUTH,
    expected_round: int = 0,
    slack: float = 1e-9,
) -> GuaranteeReport:
    """:func:`verify_guarantees` for the streaming (no-trace) observation path."""
    measured = measure_summary(summary, params, expected_round=expected_round)
    return verify_measurements(measured, params, algorithm=algorithm, expected_round=expected_round, slack=slack)
