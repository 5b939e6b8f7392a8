"""Parameter sweeps.

Every experiment in the benchmark harness is a sweep: vary one or two model
parameters, run a scenario per grid point, and collect a results table.  The
helpers here keep that pattern declarative and identical across experiments.
"""

from __future__ import annotations

import itertools
from dataclasses import replace
from typing import Callable, Iterable, Mapping, Optional, Sequence

from ..core.params import SyncParams
from .scenarios import Scenario, ScenarioResult


def grid(**axes: Sequence) -> list[dict]:
    """Cartesian product of named value lists, as a list of keyword dictionaries.

    >>> grid(n=[4, 7], rho=[0.001])
    [{'n': 4, 'rho': 0.001}, {'n': 7, 'rho': 0.001}]
    """
    names = list(axes)
    combos = itertools.product(*(axes[name] for name in names))
    return [dict(zip(names, values)) for values in combos]


def scenario_sweep(
    base: Scenario,
    points: Iterable[Mapping],
    param_fields: Optional[Sequence[str]] = None,
) -> list[Scenario]:
    """Build one scenario per grid point.

    Keys that name :class:`~repro.core.params.SyncParams` fields (or listed in
    ``param_fields``) are applied to the scenario's parameters; all other keys
    are applied to the scenario itself.
    """
    params_fields = set(SyncParams.__dataclass_fields__)
    if param_fields:
        params_fields.update(param_fields)
    scenarios = []
    for point in points:
        param_changes = {k: v for k, v in point.items() if k in params_fields}
        scenario_changes = {k: v for k, v in point.items() if k not in params_fields}
        params = base.params.with_(**param_changes) if param_changes else base.params
        scenario = replace(base, params=params, name="", **scenario_changes)
        scenarios.append(scenario)
    return scenarios


def run_sweep(
    scenarios: Iterable[Scenario],
    check_guarantees=None,
    callback: Optional[Callable[[ScenarioResult], None]] = None,
    runner=None,
    trace_level: str = "metrics",
) -> list[ScenarioResult]:
    """Run every scenario and return the results in input order.

    Execution goes through a :class:`~repro.runner.core.SweepRunner`: the one
    passed as ``runner``, or the process-wide default (see
    :mod:`repro.runner.config`), which may parallelize across worker
    processes and serve repeated grid points from the on-disk result cache.
    ``check_guarantees`` is a single flag for the whole sweep or a sequence
    with one entry per scenario.  Replicated grid points
    (``Scenario.replications > 1``, metrics level) shard transparently
    across the same worker pool; their results are the exact merge of the
    per-replication summaries.
    """
    if runner is None:
        from ..runner.config import get_runner

        runner = get_runner()
    return runner.run_sweep(
        scenarios, check_guarantees=check_guarantees, callback=callback, trace_level=trace_level
    )


def stream_sweep(
    scenarios: Iterable[Scenario],
    on_result: Callable[[int, ScenarioResult], None],
    check_guarantees=None,
    runner=None,
    trace_level: str = "metrics",
) -> int:
    """Run every scenario, folding each result into ``on_result`` as it completes.

    The constant-memory counterpart of :func:`run_sweep`: ``on_result(index,
    result)`` receives each scenario's input position and result exactly once
    (input order when serial, completion order when parallel) and nothing is
    retained by the runner, so a reducer that extracts what it needs and
    drops the result keeps the parent at O(1) results regardless of grid
    size.  Returns the number of scenarios run.
    """
    if runner is None:
        from ..runner.config import get_runner

        runner = get_runner()
    return runner.stream_sweep(
        scenarios, on_result, check_guarantees=check_guarantees, trace_level=trace_level
    )
