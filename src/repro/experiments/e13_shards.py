"""E13 -- Shard-plan invariance of the replicated-scenario backend.

This experiment is about the reproduction system itself rather than a paper
theorem: the paper's claims are per-configuration statistics over many
independent executions, and the sharded backend computes them by splitting
the replication axis across worker processes and folding the per-shard
summaries through the exact merge algebra
(:func:`repro.sim.recorder.merge_summaries`).

Reproduced property: **the shard plan never changes a measured value** --
every statistic of a replicated configuration (worst-case skew, acceptance
spread, window-rate extremes, message totals, completed round, effective
horizon) is float-for-float identical across shard plans, while the
provenance (``shard_count``, per-shard horizons) records how the work was
split.  A second table shows what the replication axis buys: worst-case
statistics tighten monotonically into the configuration's true worst case as
replications grow, which no single seeded run measures.
"""

from __future__ import annotations

from ..analysis.report import Table
from .common import adversarial_scenario, default_params, replicated, results_exactly_equal, run


def run_shard_invariance(quick: bool = True) -> Table:
    replications = 4 if quick else 8
    rounds = 6 if quick else 12
    base = adversarial_scenario(
        default_params(7, authenticated=True),
        "auth",
        attack="skew_max",
        rounds=rounds,
        seed=1300,
    )
    shard_plans = [1, 2, 4]
    results = [
        run(replicated(base, replications, shards=shards))
        for shards in shard_plans
    ]
    reference = results[0]

    table = Table(
        title=f"E13a: shard-plan invariance (auth, n=7, skew_max, {replications} replications)",
        headers=[
            "shards",
            "worst skew",
            "spread",
            "completed",
            "messages",
            "eff. horizon",
            "== 1 shard",
        ],
    )
    for shards, result in zip(shard_plans, results):
        exact = results_exactly_equal(result, reference)
        table.add_row(
            result.shard_count,
            result.precision,
            result.acceptance_spread,
            result.completed_round,
            result.total_messages,
            result.effective_horizon,
            exact,
        )
    table.add_note(
        "Every measured value must be float-identical across shard plans; "
        "only the provenance (shard_count, shard_horizons) differs."
    )
    return table


def run_replication_scaling(quick: bool = True) -> Table:
    counts = [1, 2, 4] if quick else [1, 2, 4, 8, 16]
    rounds = 6 if quick else 12
    base = adversarial_scenario(
        default_params(7, authenticated=True),
        "auth",
        attack="skew_max",
        rounds=rounds,
        seed=1300,
    )
    table = Table(
        title="E13b: worst-case statistics over the replication axis (auth, n=7, skew_max)",
        headers=["replications", "worst skew", "worst spread", "slowest win rate", "fastest win rate", "guarantees"],
    )
    previous_skew = None
    for count in counts:
        scenario = base if count == 1 else replicated(base, count)
        result = run(scenario)
        accuracy = result.accuracy
        table.add_row(
            count,
            result.precision,
            result.acceptance_spread,
            accuracy.slowest_window_rate if accuracy is not None else None,
            accuracy.fastest_window_rate if accuracy is not None else None,
            "hold" if result.guarantees_hold else "VIOLATED",
        )
        if previous_skew is not None:
            assert result.precision >= previous_skew, (
                "worst-case skew over a superset of replications cannot shrink"
            )
        previous_skew = result.precision
    table.add_note(
        "Replication r uses seed base+r, so each row's replications are a "
        "superset of the previous row's: worst-case statistics are monotone."
    )
    return table


def run_experiment(quick: bool = True) -> list[Table]:
    return [run_shard_invariance(quick), run_replication_scaling(quick)]
