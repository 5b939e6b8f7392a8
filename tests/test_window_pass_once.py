"""The window-rate hull pass runs once per result.

A result's window-rate extremes are derived by
:func:`repro.analysis.envelope.combined_window_extremes`: at ``finalize`` for
a single (non-mergeable) cell, and at
:meth:`~repro.sim.recorder.OnlineMetricsSummary.compact` for a replicated
one.  Mergeable lanes and intermediate ``merge_summaries`` folds only carry
samples.  These tests count the calls through a spy on the module
attribute, which is what the recorder's deferred imports resolve.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.analysis import envelope
from repro.experiments.common import default_params
from repro.runner import SweepRunner
from repro.sim.kernel import numpy_or_none
from repro.sim.recorder import merge_summaries
from repro.workloads.scenarios import Scenario, build_cluster, run_scenario, run_shard

from test_kernel_parity import cell


@pytest.fixture
def hull_calls(monkeypatch):
    """A list that grows by one entry per ``combined_window_extremes`` call."""
    calls = []
    real = envelope.combined_window_extremes

    def spy(samples, t_start, t_end):
        calls.append(len(samples))
        return real(samples, t_start, t_end)

    monkeypatch.setattr(envelope, "combined_window_extremes", spy)
    return calls


@pytest.mark.parametrize("kernel", ["event", None])
def test_single_cell_runs_the_pass_once(hull_calls, kernel):
    result = run_scenario(cell(7, rounds=6, kernel=kernel), trace_level="metrics")
    assert hull_calls == [7 - 3]  # one call over the four honest processes
    assert result.accuracy.fastest_window_rate is not None


def test_mergeable_lane_finalize_runs_no_pass(hull_calls):
    scenario = cell(7, rounds=6)
    handles = build_cluster(scenario, trace_level="metrics", mergeable=True)
    summary = handles.sim.run_until_round(scenario.rounds, t_max=scenario.horizon())
    outcome = run_shard(dataclasses.replace(scenario, replications=3), 0, (0, 1, 2))
    merged = merge_summaries([summary, outcome.summary])
    assert hull_calls == []
    assert summary.fastest_window_rate is None and merged.fastest_window_rate is None
    assert merged.compact().fastest_window_rate is not None
    assert hull_calls == [4 * (7 - 3)]


@pytest.mark.parametrize("kernel", ["event", None])
def test_replicated_scenario_runs_the_pass_once(hull_calls, kernel):
    scenario = cell(7, rounds=6, kernel=kernel, replications=4, shards=1)
    result = run_scenario(scenario, trace_level="metrics")
    assert hull_calls == [4 * (7 - 3)]
    assert result.accuracy.fastest_window_rate is not None


def test_every_shard_plan_runs_the_pass_once_per_result(hull_calls):
    scenario = cell(7, rounds=6, replications=4)
    results = []
    with SweepRunner(jobs=1) as runner:
        for shards in (1, 2, 4):  # E13's plans
            hull_calls.clear()
            results.append(runner.run(dataclasses.replace(scenario, shards=shards), trace_level="metrics"))
            assert hull_calls == [4 * (7 - 3)], shards
            hull_calls.clear()
            run_scenario(dataclasses.replace(scenario, shards=shards), trace_level="metrics")
            assert hull_calls == [4 * (7 - 3)], shards
    assert len({result.shard_count for result in results}) == 3
    assert len({(r.accuracy.slowest_window_rate, r.accuracy.fastest_window_rate) for r in results}) == 1


def _vector_configurations() -> list:
    """The 15 vector-whitelisted configurations of the benchmark, four replications each."""
    scenarios = []
    for n in (14, 28, 49):
        for attack, delay_mode, clock_mode in (
            ("skew_max", "targeted", "extreme"),
            ("random_two_faced", "uniform", "extreme"),
            ("eager", "max", "random"),
        ):
            scenarios.append(Scenario(
                params=default_params(n, authenticated=True), algorithm="auth", attack=attack,
                rounds=8, clock_mode=clock_mode, delay_mode=delay_mode,
                replications=4, shards=1, seed=len(scenarios),
            ))
    for n in (13, 25):
        for attack, delay_mode in (("skew_max", "targeted"), ("two_faced", "uniform"), ("forge_flood", "uniform")):
            scenarios.append(Scenario(
                params=default_params(n, authenticated=False), algorithm="echo", attack=attack,
                rounds=6, clock_mode="extreme", delay_mode=delay_mode,
                replications=4, shards=1, seed=len(scenarios),
            ))
    return scenarios


@pytest.mark.skipif(numpy_or_none() is None, reason="numpy not installed")
def test_vector_replicated_pass_runs_fifteen_passes(hull_calls):
    # 15 configurations x 4 lanes: one pass per result, none per lane or fold.
    with SweepRunner(jobs=1) as runner:
        for scenario in _vector_configurations():
            runner.run_sweep([scenario], trace_level="metrics")
    assert len(hull_calls) == 15
