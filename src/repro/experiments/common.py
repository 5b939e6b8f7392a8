"""Shared helpers for the experiment runners.

Every experiment (E1..E15, indexed in docs/experiments.md) is a function ``run(quick=True)``
returning one or more :class:`~repro.analysis.report.Table` objects.  The
benchmark harness times these runners and prints the tables; the examples and
EXPERIMENTS.md generator call the same code, so the numbers in the
documentation are exactly the numbers the harness produces.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace as dataclasses_replace
from typing import Callable, Optional, Sequence

from ..core.params import SyncParams, params_for
from ..workloads.scenarios import Scenario, ScenarioResult
from ..workloads.sweeps import run_sweep, stream_sweep

#: Default model parameters used across experiments unless a sweep overrides them.
DEFAULT_RHO = 1e-4
DEFAULT_TDEL = 0.01
DEFAULT_PERIOD = 1.0


def default_params(
    n: int,
    authenticated: bool = True,
    f: Optional[int] = None,
    rho: float = DEFAULT_RHO,
    tdel: float = DEFAULT_TDEL,
    period: float = DEFAULT_PERIOD,
    initial_offset_spread: Optional[float] = None,
) -> SyncParams:
    """Experiment-wide default parameterisation (worst-case ``f`` unless overridden)."""
    if initial_offset_spread is None:
        initial_offset_spread = tdel
    return params_for(
        n=n,
        f=f,
        authenticated=authenticated,
        rho=rho,
        tdel=tdel,
        period=period,
        initial_offset_spread=initial_offset_spread,
    )


def adversarial_scenario(
    params: SyncParams,
    algorithm: str,
    attack: str = "eager",
    rounds: int = 10,
    seed: int = 0,
    **kwargs,
) -> Scenario:
    """A scenario with the harshest standard conditions: extreme clocks, targeted delays."""
    return Scenario(
        params=params,
        algorithm=algorithm,
        attack=attack,
        rounds=rounds,
        clock_mode="extreme",
        delay_mode="targeted",
        seed=seed,
        **kwargs,
    )


def benign_scenario(
    params: SyncParams,
    algorithm: str,
    rounds: int = 10,
    seed: int = 0,
    **kwargs,
) -> Scenario:
    """A scenario with no active adversary: random clocks and uniform delays."""
    return Scenario(
        params=params,
        algorithm=algorithm,
        attack="silent",
        rounds=rounds,
        clock_mode="random",
        delay_mode="uniform",
        seed=seed,
        **kwargs,
    )


def replicated(scenario: Scenario, replications: int, shards: Optional[int] = None) -> Scenario:
    """``scenario`` with ``replications`` independent runs (seeds ``seed``..).

    The result of a replicated scenario is the exact merge of the
    per-replication summaries -- worst-case statistics over all runs of one
    configuration -- and its execution shards across the worker pool along
    the resolved shard plan (``shards=None``: one shard per core).  Requires
    ``trace_level="metrics"``.
    """
    return dataclasses_replace(scenario, replications=replications, shards=shards, name="")


#: :class:`~repro.workloads.scenarios.ScenarioResult` fields that must be
#: identical wherever and however a scenario executes -- serial, pooled,
#: sharded, or on a remote executor backend.  The accuracy summary compares
#: as a whole dataclass (window-rate extremes included); execution
#: provenance (``shard_count``, ``shard_horizons``) is deliberately absent.
#: Every parity gate (E13, E14, the ``perfbench`` digests) compares this one
#: list, so a newly added measured field is either covered everywhere or
#: visibly missing here.
MEASURED_RESULT_FIELDS = (
    "precision",
    "precision_overall",
    "acceptance_spread",
    "completed_round",
    "total_messages",
    "effective_horizon",
    "accuracy",
)


def results_exactly_equal(result: ScenarioResult, reference: ScenarioResult) -> bool:
    """Float-exact equality of every measured field (provenance excluded)."""
    return all(getattr(result, field) == getattr(reference, field) for field in MEASURED_RESULT_FIELDS)


def stable_seed(*parts, modulus: int = 1_000_000) -> int:
    """A deterministic seed derived from ``parts``.

    Unlike the builtin ``hash`` (randomized per interpreter via
    ``PYTHONHASHSEED``), this is stable across Python invocations and worker
    processes -- which is what makes experiment scenarios reproducible and
    their cached results reusable between runs.
    """
    digest = hashlib.sha256("\x1f".join(repr(part) for part in parts).encode()).digest()
    return int.from_bytes(digest[:8], "big") % modulus


#: Optional passive observer: called with every ScenarioResult an experiment
#: obtains through this module (streamed or batched, cache hits included).
#: The report generator uses it to persist per-table provenance -- effective
#: horizons, shard counts, early stops -- without touching the experiments.
_observer: Optional[Callable[[ScenarioResult], None]] = None


def set_observer(hook: Optional[Callable[[ScenarioResult], None]]) -> None:
    """Install (or with ``None`` remove) the passive result observer."""
    global _observer
    _observer = hook


def _observe(result: ScenarioResult) -> None:
    if _observer is not None:
        _observer(result)


def run(
    scenario: Scenario,
    check_guarantees: Optional[bool] = None,
    trace_level: str = "full",
) -> ScenarioResult:
    """Run one scenario through the shared sweep runner (cache included)."""
    result = run_sweep([scenario], check_guarantees=check_guarantees, trace_level=trace_level)[0]
    _observe(result)
    return result


def run_batch(
    scenarios: Sequence[Scenario],
    check_guarantees=None,
    trace_level: str = "full",
) -> list[ScenarioResult]:
    """Run an experiment's whole scenario list through the shared sweep runner.

    This is the experiment-side entry point to parallel execution: building
    every scenario first and submitting them in one batch lets the runner
    spread the grid across worker processes (``--jobs``/``REPRO_JOBS``) and
    serve repeats from the result cache.  ``check_guarantees`` is a single
    flag or one entry per scenario; results come back in input order.

    Experiments that only read scalar metrics off the results pass
    ``trace_level="metrics"`` so large sweeps never build execution traces;
    experiments that post-process history (E6 start-up, E7 join, E11
    ablation) keep the default full level.
    """
    return run_sweep(
        scenarios, check_guarantees=check_guarantees, callback=_observe, trace_level=trace_level
    )


#: Optional progress hook for streamed experiment sweeps: called as
#: ``hook(done, total, result)`` after each grid point completes.
_progress: Optional[Callable[[int, int, ScenarioResult], None]] = None


def set_progress(hook: Optional[Callable[[int, int, ScenarioResult], None]]) -> None:
    """Install (or with ``None`` remove) the streamed-sweep progress hook.

    The CLI's ``experiment --stream`` uses this to report grid points as they
    complete; it works because the experiments fold their tables through
    :func:`stream_rows` instead of materializing result lists.
    """
    global _progress
    _progress = hook


def stream_rows(
    scenarios: Sequence[Scenario],
    row_of: Callable[[int, ScenarioResult], Sequence],
    check_guarantees=None,
    trace_level: str = "full",
) -> list[list]:
    """Run a sweep and fold each result into its table row as it completes.

    The streaming counterpart of :func:`run_batch` for experiments that only
    turn results into table rows: ``row_of(index, result)`` maps one result
    (at its input position ``index``) to the row cells, the result is dropped
    immediately afterwards, and the rows come back in input order.  The
    parent process never holds more than a bounded number of
    :class:`~repro.workloads.scenarios.ScenarioResult` objects, so table
    generation works at grid sizes where materializing every result would
    not.
    """
    rows: list = [None] * len(scenarios)
    done = 0

    def fold(index: int, result: ScenarioResult) -> None:
        nonlocal done
        done += 1
        rows[index] = list(row_of(index, result))
        _observe(result)
        if _progress is not None:
            _progress(done, len(scenarios), result)

    stream_sweep(scenarios, fold, check_guarantees=check_guarantees, trace_level=trace_level)
    return rows
