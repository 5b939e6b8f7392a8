"""The sharded execution backend: replication shards on the shared worker pool.

A replicated scenario (``Scenario.replications > 1``) is a bag of independent
seeded runs whose result is the exact merge of the per-run summaries
(:func:`~repro.sim.recorder.merge_summaries`).  Because the merge is
associative, the replication axis can be *sharded*: split into blocks, each
block executed (and locally folded) by a worker process, and the per-shard
summaries folded again in the parent -- float-for-float identical to running
every replication in one process, for any shard plan.

This module supplies the pieces the :class:`~repro.runner.core.SweepRunner`
composes into its windowed submission loop, so grid parallelism and shard
parallelism share one bounded pool:

* :func:`shard_plan_for` / :func:`expand_shards` -- turn one scenario into
  its deterministic shard tasks,
* :func:`run_shard_chunk` -- the picklable worker task (a batch of shard
  tasks, each running its replication block via
  :func:`~repro.workloads.scenarios.run_shard`),
* :class:`ShardFold` -- the parent-side accumulator that collects a
  scenario's shard outcomes and emits the folded
  :class:`~repro.workloads.scenarios.ScenarioResult` the moment the last
  shard lands (outcomes are dropped immediately after, so the parent holds
  O(in-flight scenarios) shard summaries, never O(grid)).
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..workloads.scenarios import (
    Scenario,
    ScenarioResult,
    ShardOutcome,
    measure_sharded,
    plan_shards,
    resolve_shards,
    run_shard,
)

#: One shard task: (scenario index, scenario, shard index, replication block).
ShardTask = tuple[int, Scenario, int, tuple]


def shard_plan_for(scenario: Scenario, trace_level: str) -> Optional[list[tuple]]:
    """The scenario's shard plan, or ``None`` when it runs as a single task.

    A scenario splits only when it is replicated, observed at metrics level
    (full traces do not merge) and its resolved shard count exceeds one; a
    replicated scenario whose plan resolves to a single shard still runs as
    one task (the worker folds its replications in process).
    """
    if scenario.replications <= 1 or trace_level != "metrics":
        return None
    if resolve_shards(scenario) <= 1:
        return None
    return plan_shards(scenario)


def expand_shards(index: int, scenario: Scenario, plan: Sequence[tuple]) -> list[ShardTask]:
    """The shard tasks of one scenario, in shard order."""
    return [(index, scenario, shard_index, tuple(block)) for shard_index, block in enumerate(plan)]


def run_shard_chunk(chunk: list[ShardTask]) -> list[tuple[int, ShardOutcome]]:
    """Worker task: run a batch of shard tasks, one folded outcome each."""
    return [(index, run_shard(scenario, shard_index, block)) for index, scenario, shard_index, block in chunk]


class ShardFold:
    """Parent-side accumulator folding shard outcomes into scenario results.

    ``add`` collects outcomes per scenario index (shards arrive in completion
    order) and returns the folded result exactly once -- when the last
    expected shard lands -- after which the scenario's outcomes are dropped.
    The fold sorts by shard index and merges through the same algebra the
    shards used internally, so the emitted result is independent of
    completion order and of the shard plan itself.
    """

    def __init__(self) -> None:
        self._outcomes: dict[int, list[ShardOutcome]] = {}
        self._expected: dict[int, int] = {}
        self._checks: dict[int, Optional[bool]] = {}
        self._scenarios: dict[int, Scenario] = {}

    def expect(self, index: int, scenario: Scenario, shard_count: int, check_guarantees: Optional[bool]) -> None:
        """Register a scenario whose ``shard_count`` outcomes will be added."""
        self._expected[index] = shard_count
        self._checks[index] = check_guarantees
        self._scenarios[index] = scenario
        self._outcomes[index] = []

    def add(self, index: int, outcome: ShardOutcome) -> Optional[ScenarioResult]:
        """Fold one shard outcome in; return the final result when complete."""
        outcomes = self._outcomes[index]
        outcomes.append(outcome)
        if len(outcomes) < self._expected[index]:
            return None
        scenario = self._scenarios.pop(index)
        check = self._checks.pop(index)
        del self._expected[index]
        del self._outcomes[index]
        return measure_sharded(scenario, outcomes, check_guarantees=check)
