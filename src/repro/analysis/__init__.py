"""Exact measurement and verification of executions."""

from .envelope import AccuracySummary
from .metrics import (
    PeriodStats,
    max_backward_adjustment,
    max_skew,
    skew_at,
    skew_timeseries,
    steady_state_start,
)
from .optimality import (
    ExecutionMeasurements,
    GuaranteeCheck,
    GuaranteeReport,
    measure_summary,
    verify_measurements,
    verify_summary,
)
from .report import Table, render_tables
from .serialize import (
    load_result_summary,
    result_to_dict,
    result_to_json,
    save_result,
    trace_to_dict,
)

__all__ = [
    "max_skew",
    "skew_at",
    "skew_timeseries",
    "steady_state_start",
    "max_backward_adjustment",
    "PeriodStats",
    "AccuracySummary",
    "ExecutionMeasurements",
    "GuaranteeCheck",
    "GuaranteeReport",
    "measure_summary",
    "verify_measurements",
    "verify_summary",
    "Table",
    "render_tables",
    "result_to_dict",
    "result_to_json",
    "save_result",
    "load_result_summary",
    "trace_to_dict",
]
