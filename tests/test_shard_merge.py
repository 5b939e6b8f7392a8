"""Shard-merge algebra: sharded execution never changes a measured value.

The sharded backend rests on one algebraic fact: folding per-replication
summaries through :func:`repro.sim.recorder.merge_summaries` is associative
and (up to the order of concatenated sequences) commutative, with every
combining operation exact -- so any shard grouping of the same replications
produces float-for-float the same summary, and the parallel backend equals
the serial fold by construction.  These tests pin that fact down directly on
the algebra, across the crash/startup/joiner/drifting/tie-heavy parity grid
end to end, and on the runner's parent-side memory behaviour (shard folding
must not accumulate results in the parent).
"""

from __future__ import annotations

import dataclasses
import gc
import weakref

import pytest

from repro.experiments.common import adversarial_scenario, benign_scenario, default_params
from repro.runner.core import SweepRunner
from repro.sim.recorder import merge_summaries
from repro.workloads.scenarios import (
    Scenario,
    build_cluster,
    plan_shards,
    replicate,
    resolve_shards,
    run_scenario,
    run_shard,
)

MEASURED_FIELDS = (
    "precision",
    "precision_overall",
    "acceptance_spread",
    "completed_round",
    "total_messages",
    "messages_per_round",
    "effective_horizon",
    "stopped_early",
    "accuracy",
)


def _parity_grid() -> list[Scenario]:
    """The shard-parity grid: every case where merging could drift."""
    return [
        # Crash faults (the crash ceiling and liveness gaps must merge right).
        adversarial_scenario(default_params(7, authenticated=True), "auth", attack="crash", rounds=5, seed=3),
        # Start-up from scratch: steady-state starts late and varies per seed.
        Scenario(
            params=default_params(5, authenticated=True),
            algorithm="auth",
            attack="silent",
            rounds=5,
            use_startup=True,
            boot_spread=0.004,
            clock_mode="extreme",
            delay_mode="uniform",
            seed=8,
        ),
        # A late joiner: liveness triples include a late first round.
        Scenario(
            params=default_params(5, authenticated=True),
            algorithm="auth",
            attack="silent",
            rounds=5,
            joiner_count=1,
            join_time=2.5,
            clock_mode="extreme",
            delay_mode="uniform",
            seed=9,
        ),
        # Drifting piecewise-linear clocks: densest window-sample streams.
        benign_scenario(default_params(5, authenticated=True), "auth", rounds=5, seed=5),
        # Tie-heavy worst-case delay policies (echo variant).
        dataclasses.replace(
            adversarial_scenario(
                default_params(7, authenticated=False), "echo", attack="skew_max", rounds=5, seed=2
            ),
            delay_mode="max",
            name="",
        ),
    ]


def _rep_summaries(scenario: Scenario, count: int) -> list:
    """Individual mergeable summaries of ``count`` replications."""
    replicated = dataclasses.replace(scenario, replications=count, name="")
    return [run_shard(replicated, i, (i,)).summary for i in range(count)]


def _final(summary):
    """The summary's compacted form, whose window-rate extremes are derived."""
    final = summary.compact()
    assert final.slowest_window_rate is not None and final.fastest_window_rate is not None
    return final


def _scalar_fields(summary) -> dict:
    skip = {"liveness_triples", "notes", "window_samples", "message_stats"}
    return {
        field.name: getattr(summary, field.name)
        for field in dataclasses.fields(summary)
        if field.name not in skip
    }


# -- algebra ---------------------------------------------------------------


def test_merge_is_associative():
    a, b, c = _rep_summaries(_parity_grid()[0], 3)
    left = merge_summaries([merge_summaries([a, b]), c])
    right = merge_summaries([a, merge_summaries([b, c])])
    flat = merge_summaries([a, b, c])
    assert left == right == flat
    assert _final(left) == _final(right) == _final(flat)


def test_merge_is_commutative_up_to_order():
    a, b, c = _rep_summaries(_parity_grid()[3], 3)
    forward = _final(merge_summaries([a, b, c]))
    backward = _final(merge_summaries([c, b, a]))
    assert _scalar_fields(forward) == _scalar_fields(backward)
    assert forward.message_stats == backward.message_stats
    assert sorted(map(repr, forward.liveness_triples)) == sorted(map(repr, backward.liveness_triples))
    # The window-rate extremes are derived from the union of samples, so
    # they are exactly order-independent too (not just up to tolerance).
    assert forward.slowest_window_rate == backward.slowest_window_rate
    assert forward.fastest_window_rate == backward.fastest_window_rate


def test_merge_single_is_identity():
    (summary,) = _rep_summaries(_parity_grid()[0], 1)
    assert merge_summaries([summary]) is summary
    with pytest.raises(ValueError):
        merge_summaries([])


def test_mergeable_summary_equals_plain_summary():
    """finalize retains the samples and defers the extremes; compact() equals run_scenario's accuracy."""
    scenario = _parity_grid()[3]
    handles = build_cluster(scenario, trace_level="metrics")
    summary = handles.sim.run_until_round(scenario.rounds, t_max=scenario.horizon())
    assert summary.window_samples is not None
    assert summary.slowest_window_rate is None and summary.fastest_window_rate is None  # derived by compact()
    final = _final(summary)
    assert final.window_samples is None
    accuracy = run_scenario(scenario, trace_level="metrics").accuracy
    assert accuracy is not None
    for field in dataclasses.fields(accuracy):
        assert getattr(final, field.name) == getattr(accuracy, field.name), field.name
    # A compacted summary has dropped its samples: it is a result, not a fold input.
    with pytest.raises(ValueError, match="uncompacted"):
        merge_summaries([summary, final])


def test_sample_less_summaries_cannot_be_selected():
    # perfbench/layers.py still passes mergeable=True; False has nothing left to select.
    with pytest.raises(ValueError, match="mergeable=False"):
        build_cluster(_parity_grid()[0], trace_level="metrics", mergeable=False)


def test_merge_random_groupings_are_float_identical():
    """Any partition of the replications folds to the same summary."""
    import random

    summaries = _rep_summaries(_parity_grid()[4], 5)
    reference = _final(merge_summaries(summaries))
    rng = random.Random(7)
    for _ in range(6):
        cut_a = rng.randint(1, 4)
        cut_b = rng.randint(cut_a, 4)
        groups = [summaries[:cut_a], summaries[cut_a:cut_b], summaries[cut_b:]]
        folded = merge_summaries([merge_summaries(group) for group in groups if group])
        assert _final(folded) == reference


# -- end to end across the parity grid -------------------------------------


@pytest.mark.parametrize("scenario", _parity_grid(), ids=lambda s: s.name)
def test_sharded_equals_unsharded(scenario):
    replicated = dataclasses.replace(scenario, replications=3, shards=1, name="")
    reference = run_scenario(replicated, trace_level="metrics")
    assert reference.shard_count == 1
    assert reference.shard_horizons == (reference.effective_horizon,)
    for shards in (2, 3):
        result = run_scenario(dataclasses.replace(replicated, shards=shards, name=""), trace_level="metrics")
        assert result.shard_count == shards
        assert len(result.shard_horizons) == shards
        assert max(result.shard_horizons) == result.effective_horizon
        for field in MEASURED_FIELDS:
            assert getattr(result, field) == getattr(reference, field), field
        if reference.guarantees is None:
            assert result.guarantees is None
        else:
            assert result.guarantees.all_hold == reference.guarantees.all_hold
            assert [
                (check.name, check.measured, check.bound, check.holds)
                for check in result.guarantees.checks
            ] == [
                (check.name, check.measured, check.bound, check.holds)
                for check in reference.guarantees.checks
            ]


def test_pool_sharded_equals_serial_fold():
    scenario = dataclasses.replace(_parity_grid()[0], replications=4, shards=4, name="")
    serial = run_scenario(scenario, trace_level="metrics")
    with SweepRunner(jobs=2) as runner:
        pooled = runner.run(scenario, trace_level="metrics")
    for field in MEASURED_FIELDS:
        assert getattr(pooled, field) == getattr(serial, field), field
    assert pooled.shard_count == serial.shard_count == 4
    assert pooled.shard_horizons == serial.shard_horizons


# -- plumbing ---------------------------------------------------------------


def test_shard_plan_is_balanced_and_resolved(monkeypatch):
    scenario = dataclasses.replace(_parity_grid()[0], replications=7, shards=3, name="")
    plan = plan_shards(scenario)
    assert [len(block) for block in plan] == [3, 2, 2]
    assert [index for block in plan for index in block] == list(range(7))
    # The plan is capped by the replication count...
    capped = dataclasses.replace(scenario, shards=99, name="")
    assert resolve_shards(capped) == 7
    # ...an unreplicated scenario never shards...
    assert resolve_shards(dataclasses.replace(scenario, replications=1, shards=None, name="")) == 1
    # ...and the auto plan follows REPRO_SHARDS (else the core count).
    monkeypatch.setenv("REPRO_SHARDS", "2")
    assert resolve_shards(dataclasses.replace(scenario, shards=None, name="")) == 2


def test_replicate_preserves_configuration():
    scenario = dataclasses.replace(_parity_grid()[1], replications=3, grace=0.5, name="")
    rep = replicate(scenario, 2)
    assert rep.seed == scenario.seed + 2
    assert rep.replications == 1
    assert rep.grace == scenario.grace
    assert rep.use_startup == scenario.use_startup
    with pytest.raises(ValueError):
        replicate(scenario, 3)


def test_replications_require_metrics_level():
    scenario = dataclasses.replace(_parity_grid()[0], replications=2, name="")
    with pytest.raises(ValueError, match="metrics"):
        run_scenario(scenario, trace_level="full")
    with pytest.raises(ValueError, match="metrics"):
        SweepRunner(jobs=1).run_sweep([scenario], trace_level="full")


def test_shard_folding_keeps_parent_memory_constant():
    """The parent drops results (and shard summaries) as soon as they are emitted."""
    base = _parity_grid()[0]
    scenarios = [
        dataclasses.replace(base, replications=2, shards=2, seed=base.seed + offset, name="")
        for offset in range(4)
    ]
    alive: list[weakref.ref] = []
    high_water = 0

    def fold(index, result):
        nonlocal high_water
        alive.append(weakref.ref(result))
        del result
        gc.collect()
        high_water = max(high_water, sum(1 for ref in alive if ref() is not None))

    with SweepRunner(jobs=2) as runner:
        runner.stream_sweep(scenarios, fold, trace_level="metrics")
    gc.collect()
    assert high_water <= 2, f"parent retained {high_water} folded shard results"
    assert sum(1 for ref in alive if ref() is not None) == 0
