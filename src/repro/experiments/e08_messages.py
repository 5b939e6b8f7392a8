"""E8 -- Message complexity.

Claim reproduced: both algorithms use ``O(n^2)`` messages per
resynchronization round -- at most two broadcasts per correct process per
round (signature + relayed proof, or init + echo) -- with the measured counts
below the analytic worst case.
"""

from __future__ import annotations

from ..analysis.report import Table
from ..core.bounds import messages_per_round_total
from .common import benign_scenario, default_params, stream_rows


def run_experiment(quick: bool = True) -> Table:
    sizes = [4, 7, 10] if quick else [4, 7, 10, 16, 25]
    algorithms = ["auth", "echo"]
    rounds = 6 if quick else 12

    cases = [(algorithm, n) for algorithm in algorithms for n in sizes]
    scenarios = [
        benign_scenario(default_params(n, authenticated=(algorithm == "auth")), algorithm, rounds=rounds, seed=n)
        for algorithm, n in cases
    ]
    def row(index, result):
        algorithm, n = cases[index]
        scenario = scenarios[index]
        bound = messages_per_round_total(scenario.params, scenario.st_algorithm)
        measured = result.messages_per_round
        return (algorithm, n, scenario.params.f, measured, bound, measured <= bound + 1e-9)

    table = Table(
        title="E8: messages per resynchronization round",
        headers=["algorithm", "n", "f", "measured msgs/round", "bound 2*(n-f)*(n-1)", "within bound"],
    )
    table.add_rows(stream_rows(scenarios, row, check_guarantees=False))
    table.add_note("benign runs (silent faulty processes); adversarial flooding is excluded from the complexity claim")
    return table
