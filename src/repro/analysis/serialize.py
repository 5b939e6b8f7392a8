"""JSON-friendly serialization of results and traces.

Experiment pipelines usually want to archive what was run and what was
measured.  This module converts scenarios, guarantee reports, traces and
scenario results into plain dictionaries (and JSON), and can reload result
summaries for later comparison.  Hardware clock *objects* are not serialized
(they are adversary inputs, not measurements); their drift bounds and the full
adjustment/resynchronization history are.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path
from typing import Any, Optional, Union

from ..core.params import SyncParams
from ..crypto.signatures import field_names
from ..sim.trace import ProcessTrace, Trace
from .optimality import GuaranteeReport


def _fields_to_dict(instance) -> dict[str, Any]:
    """``dataclasses.asdict`` without its deep-copying walk, for scalar-valued fields.

    Same dictionary, key order included (``tests/test_cache_fastpath.py`` keeps
    ``asdict`` as the oracle); the result cache builds one per lookup.
    """
    return {name: getattr(instance, name) for name in field_names(type(instance))}


def params_to_dict(params: SyncParams) -> dict[str, Any]:
    """Serialize model parameters (including the resolved alpha)."""
    data = _fields_to_dict(params)
    data["alpha_value"] = params.alpha_value
    return data


def guarantees_to_dict(report: Optional[GuaranteeReport]) -> Optional[dict[str, Any]]:
    """Serialize a guarantee report (None passes through)."""
    if report is None:
        return None
    return {
        "algorithm": report.algorithm,
        "all_hold": report.all_hold,
        "checks": [
            {
                "name": check.name,
                "measured": check.measured,
                "bound": check.bound,
                "holds": check.holds,
                "direction": check.direction,
            }
            for check in report.checks
        ],
    }


def process_trace_to_dict(ptrace: ProcessTrace) -> dict[str, Any]:
    """Serialize one process's observable history."""
    return {
        "pid": ptrace.pid,
        "faulty": ptrace.faulty,
        "crashed_at": ptrace.crashed_at,
        "clock": {
            "type": type(ptrace.clock).__name__,
            "min_rate": ptrace.clock.min_rate,
            "max_rate": ptrace.clock.max_rate,
            "initial_value": ptrace.clock.read(0.0),
        },
        "adjustments": [
            {"time": t, "adjustment": a}
            for t, a in zip(ptrace.adjustment_times, ptrace.adjustment_values)
        ],
        "resyncs": [
            {
                "round": event.round,
                "time": event.time,
                "logical_before": event.logical_before,
                "logical_after": event.logical_after,
            }
            for event in ptrace.resyncs
        ],
    }


def trace_to_dict(trace: Trace) -> dict[str, Any]:
    """Serialize a whole execution trace."""
    return {
        "end_time": trace.end_time,
        "total_messages": trace.total_messages,
        "message_stats": dict(trace.message_stats),
        "notes": list(trace.notes),
        "processes": [process_trace_to_dict(trace.processes[pid]) for pid in sorted(trace.processes)],
    }


def scenario_to_dict(scenario) -> dict[str, Any]:
    """Serialize a scenario description (its parameters become a nested dict)."""
    data = _fields_to_dict(scenario)
    data["params"] = params_to_dict(scenario.params)
    return data


def result_to_dict(result, include_trace: bool = False) -> dict[str, Any]:
    """Serialize a :class:`~repro.workloads.scenarios.ScenarioResult`.

    The (potentially large) trace is omitted unless ``include_trace=True``.
    """
    data: dict[str, Any] = {
        "scenario": scenario_to_dict(result.scenario),
        "trace_level": result.trace_level,
        "effective_horizon": getattr(result, "effective_horizon", None),
        "stopped_early": getattr(result, "stopped_early", False),
        "shard_count": getattr(result, "shard_count", 1),
        "shard_horizons": (
            list(result.shard_horizons) if getattr(result, "shard_horizons", None) is not None else None
        ),
        "message_samples": (
            [list(sample) for sample in result.message_samples]
            if getattr(result, "message_samples", None) is not None
            else None
        ),
        "kernel_provenance": (
            dataclasses.asdict(result.kernel_provenance)
            if getattr(result, "kernel_provenance", None) is not None
            else None
        ),
        "precision": result.precision,
        "precision_overall": result.precision_overall,
        "acceptance_spread": result.acceptance_spread,
        "completed_round": result.completed_round,
        "total_messages": result.total_messages,
        "messages_per_round": result.messages_per_round,
        "period_min": result.period_stats.minimum if result.period_stats.count else None,
        "period_max": result.period_stats.maximum if result.period_stats.count else None,
        "guarantees": guarantees_to_dict(result.guarantees),
    }
    if result.accuracy is not None:
        accuracy = dataclasses.asdict(result.accuracy)
        # A recorder run without window tracking reports the window-rate
        # extremes as nan; emit null so the document stays valid JSON.
        data["accuracy"] = {
            key: None if isinstance(value, float) and math.isnan(value) else value
            for key, value in accuracy.items()
        }
    if include_trace and result.trace is not None:
        data["trace"] = trace_to_dict(result.trace)
    return data


def result_to_json(result, include_trace: bool = False, indent: int = 2) -> str:
    """Serialize a scenario result to a JSON string."""
    return json.dumps(result_to_dict(result, include_trace=include_trace), indent=indent, sort_keys=True)


def save_result(result, path: Union[str, Path], include_trace: bool = False) -> Path:
    """Write a scenario result to ``path`` as JSON and return the path."""
    path = Path(path)
    path.write_text(result_to_json(result, include_trace=include_trace), encoding="utf-8")
    return path


def load_result_summary(path: Union[str, Path]) -> dict[str, Any]:
    """Load a previously saved result summary back into a dictionary."""
    return json.loads(Path(path).read_text(encoding="utf-8"))
