"""E7 -- Integration of a joining process.

Claim reproduced: a process that comes up while the system is already
synchronized joins within one resynchronization interval plus the acceptance
latency, and once joined it obeys the same precision bound as everyone else.
"""

from __future__ import annotations

from ..analysis.report import Table
from ..core.bounds import precision_bound
from ..core.join import join_latency_bound
from ..workloads.scenarios import Scenario
from .common import default_params, run_batch


def run_experiment(quick: bool = True) -> Table:
    join_times = [1.3, 2.6] if quick else [1.3, 2.6, 3.4, 5.7, 7.2]
    algorithms = ["auth", "echo"]
    rounds = 8 if quick else 15

    cases = [(algorithm, at) for algorithm in algorithms for at in join_times]
    scenarios = [
        Scenario(
            params=default_params(7, authenticated=(algorithm == "auth")),
            algorithm=algorithm,
            attack="eager",
            rounds=rounds,
            clock_mode="extreme",
            delay_mode="uniform",
            joiner_count=1,
            join_time=at,
            seed=int(at * 10),
        )
        for algorithm, at in cases
    ]
    results = run_batch(scenarios, check_guarantees=False)

    table = Table(
        title="E7: join latency of a late-starting process",
        headers=["algorithm", "join at", "joined", "join latency", "latency bound", "in time", "steady skew"],
    )
    for ((algorithm, at), scenario, result) in zip(cases, scenarios, results):
        (latency,) = result.join_latencies
        bound = join_latency_bound(scenario.params, scenario.st_algorithm)
        table.add_row(
            algorithm,
            at,
            latency != float("inf"),
            latency,
            bound,
            latency <= bound + 1e-9,
            result.precision,
        )
    table.add_note(f"precision bound (auth, n=7): {precision_bound(default_params(7), 'auth'):.4g}")
    return table
