"""Scenario descriptions, cluster assembly and parameter sweeps."""

from .scenarios import (
    ALL_ALGORITHMS,
    BASELINE_ALGORITHMS,
    CLOCK_MODES,
    DELAY_MODES,
    ST_ALGORITHMS,
    TRACE_LEVELS,
    ClusterHandles,
    KernelProvenance,
    Scenario,
    ScenarioResult,
    build_cluster,
    run_scenario,
    run_scenarios,
)
from .sweeps import grid, run_sweep, scenario_sweep, stream_sweep

__all__ = [
    "Scenario",
    "ScenarioResult",
    "KernelProvenance",
    "ClusterHandles",
    "build_cluster",
    "run_scenario",
    "run_scenarios",
    "ST_ALGORITHMS",
    "BASELINE_ALGORITHMS",
    "ALL_ALGORITHMS",
    "CLOCK_MODES",
    "DELAY_MODES",
    "TRACE_LEVELS",
    "grid",
    "scenario_sweep",
    "run_sweep",
    "stream_sweep",
]
