"""Guarantee verification: does an execution respect the paper's theorems?

:func:`verify_summary` compares the exact measurements a recorder streamed
with the analytic bounds of :mod:`repro.core.bounds` and returns a structured
verdict; every checked :class:`~repro.workloads.scenarios.ScenarioResult`
carries one.  :func:`verify_measurements` is the one bound comparator behind
it (the post-hoc oracle in ``tests/oracle.py`` feeds it too).  Under every
tolerated adversary the verdict must be all-green, and above the resilience
threshold the breaking attacks must produce a red verdict (otherwise the
experiment itself is broken).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..core import bounds as bounds_mod
from ..core.params import SyncParams
from ..sim.recorder import OnlineMetricsSummary
from .metrics import PeriodStats


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

    :func:`measure_summary` reads it from a streamed
    :class:`~repro.sim.recorder.OnlineMetricsSummary`; the oracle in
    ``tests/oracle.py`` computes it post hoc from a full
    :class:`~repro.sim.trace.Trace`, and the parity suite asserts both agree
    float-for-float, verdicts included.
    """

    steady_skew: float
    acceptance_spread: float
    period_stats: PeriodStats
    #: Largest |adjustment| over honest resyncs (first skipped); None if none.
    max_adjustment: Optional[float]
    min_completed_round: int
    #: Whether every honest process accepted all needed rounds; None when
    #: liveness was not evaluated (``expected_round`` == 0).
    liveness_ok: Optional[bool]
    #: (slowest, fastest) long-run logical rates over the steady interval;
    #: None when the steady interval is shorter than one period.
    long_run_rates: Optional[tuple[float, float]]


def period_stats_from_summary(summary: OnlineMetricsSummary) -> PeriodStats:
    """The streamed period extremes as a :class:`~repro.analysis.metrics.PeriodStats`."""
    if not summary.period_count:
        return PeriodStats.empty()
    return PeriodStats(minimum=summary.period_min, maximum=summary.period_max, count=summary.period_count)


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


def verify_summary(
    summary: OnlineMetricsSummary,
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
    measured = measure_summary(summary, params, expected_round=expected_round)
    return verify_measurements(measured, params, algorithm=algorithm, expected_round=expected_round, slack=slack)
