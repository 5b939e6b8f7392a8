"""E2 -- Optimal accuracy.

Claims reproduced:

1. The long-run rate of the synchronized clocks stays within the analytic
   rate bounds, whose excess over the hardware drift envelope is
   ``O(tdel / P)`` -- i.e. it vanishes as the resynchronization period grows
   and is independent of ``f`` and ``n``.
2. Fault tolerance is what buys this: a naive follow-the-maximum synchronizer
   is dragged arbitrarily far off real time by a single lying clock source,
   while the Srikanth-Toueg algorithms (and the fault-tolerant baselines)
   ignore it.

Two tables: (a) rate excess of the authenticated algorithm as the period
grows, against the analytic excess; (b) worst offset from real time per
algorithm with one inflated-clock Byzantine process.
"""

from __future__ import annotations

from ..analysis.report import Table
from ..core.bounds import AUTH, long_run_rate_bounds
from ..workloads.scenarios import Scenario
from .common import DEFAULT_RHO, DEFAULT_TDEL, benign_scenario, default_params, stream_rows


def run_rate_vs_period(quick: bool = True) -> Table:
    """Table (a): accuracy excess shrinks as the period grows."""
    periods = [0.5, 1.0, 2.0] if quick else [0.5, 1.0, 2.0, 5.0, 10.0]
    rounds = 8 if quick else 20
    scenarios = [
        benign_scenario(
            default_params(7, authenticated=True, period=period),
            "auth",
            rounds=rounds,
            seed=int(period * 10),
        )
        for period in periods
    ]
    def row(index, result):
        params = result.params
        _, rate_max = long_run_rate_bounds(params, AUTH)
        measured = result.accuracy.fastest_long_run_rate if result.accuracy else float("nan")
        return (
            periods[index],
            measured,
            rate_max,
            params.max_rate,
            max(0.0, measured - params.max_rate),
            rate_max - params.max_rate,
        )

    table = Table(
        title="E2a: logical clock rate vs resynchronization period (auth, n=7, f=3)",
        headers=[
            "period P",
            "measured max rate",
            "analytic max rate",
            "hardware max rate",
            "measured excess",
            "analytic excess",
        ],
    )
    table.add_rows(stream_rows(scenarios, row))
    table.add_note("excess = how far the logical clock rate exceeds the hardware drift bound (1+rho)")
    return table


def run_fault_tolerance_of_accuracy(quick: bool = True) -> Table:
    """Table (b): one lying clock source wrecks sync-to-max but not the ST algorithms."""
    rounds = 6 if quick else 15
    table = Table(
        title="E2b: worst offset from real time with one inflated-clock Byzantine process (n=7)",
        headers=["algorithm", "attack", "worst |C(t) - t|", "precision"],
    )
    cases = [
        ("auth", "eager"),
        ("echo", "eager"),
        ("lundelius_welch", "inflated_clock"),
        ("lamport_melliar_smith", "inflated_clock"),
        ("sync_to_max", "inflated_clock"),
    ]
    scenarios = [
        Scenario(
            params=default_params(7, authenticated=(algorithm == "auth"), f=1, rho=DEFAULT_RHO, tdel=DEFAULT_TDEL),
            algorithm=algorithm,
            attack=attack,
            actual_faults=1,
            rounds=rounds,
            clock_mode="random",
            delay_mode="uniform",
            seed=11,
        )
        for algorithm, attack in cases
    ]
    def row(index, result):
        algorithm, attack = cases[index]
        offset = result.accuracy.worst_offset_from_real_time if result.accuracy else float("nan")
        return (algorithm, attack, offset, result.precision)

    table.add_rows(stream_rows(scenarios, row, check_guarantees=False))
    table.add_note("sync-to-max blindly follows the largest advertised clock; the fault-tolerant algorithms do not")
    return table


def run_experiment(quick: bool = True) -> list[Table]:
    """Run E2 and return both tables."""
    return [run_rate_vs_period(quick), run_fault_tolerance_of_accuracy(quick)]
