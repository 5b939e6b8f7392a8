"""E6 -- Start-up (initial synchronization).

Claim reproduced: starting from scratch -- processes boot at arbitrary times
within a known dispersion and clocks carry arbitrary initial offsets -- every
correct process synchronizes (accepts round 0 or at latest round 1) within the
analytic start-up completion bound, after which the ordinary precision bound
applies.
"""

from __future__ import annotations

from ..analysis.report import Table
from ..core.bounds import precision_bound
from ..core.startup import startup_completion_bound
from ..workloads.scenarios import Scenario
from .common import default_params, run_batch


def run_experiment(quick: bool = True) -> Table:
    spreads = [0.0, 0.05] if quick else [0.0, 0.02, 0.05, 0.2, 0.5]
    algorithms = ["auth", "echo"]
    rounds = 6 if quick else 15

    cases = [(algorithm, spread) for algorithm in algorithms for spread in spreads]
    scenarios = [
        Scenario(
            params=default_params(7, authenticated=(algorithm == "auth"), initial_offset_spread=0.05),
            algorithm=algorithm,
            attack="silent",
            rounds=rounds,
            clock_mode="extreme",
            delay_mode="uniform",
            use_startup=True,
            boot_spread=spread,
            seed=int(spread * 100) + 3,
        )
        for algorithm, spread in cases
    ]
    results = run_batch(scenarios, check_guarantees=False)

    table = Table(
        title="E6: start-up from unsynchronized state",
        headers=[
            "algorithm",
            "boot spread",
            "all synced by",
            "completion bound",
            "in time",
            "skew after round 1",
            "precision bound",
            "within bound",
        ],
    )
    for ((algorithm, spread), scenario, result) in zip(cases, scenarios, results):
        params = scenario.params
        synced_by = result.steady_start
        bound = startup_completion_bound(params, spread, scenario.st_algorithm)
        skew_bound = precision_bound(params, scenario.st_algorithm)
        settled_skew = float("inf") if result.settled_skew is None else result.settled_skew
        table.add_row(
            algorithm,
            spread,
            synced_by,
            bound,
            synced_by <= bound + 1e-9,
            settled_skew,
            skew_bound,
            settled_skew <= skew_bound + 1e-9,
        )
    table.add_note("'all synced by' is the real time at which every correct process has resynchronized at least once")
    table.add_note("the precision bound applies from the first full round (round 1) after start-up")
    return table
