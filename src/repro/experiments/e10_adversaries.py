"""E10 -- Robustness against every implemented Byzantine strategy.

Claim reproduced: the guarantees (precision, period, acceptance spread,
adjustment size, liveness, accuracy) hold under *every* tolerated adversary in
the library, for both algorithm variants, at maximum fault count.
"""

from __future__ import annotations

from ..analysis.report import Table
from ..faults.strategies import TOLERATED_ATTACKS
from .common import adversarial_scenario, default_params, stable_seed, stream_rows


def run_experiment(quick: bool = True) -> Table:
    attacks = ["eager", "two_faced", "crash", "forge_flood"] if quick else list(TOLERATED_ATTACKS)
    algorithms = ["auth", "echo"]
    rounds = 6 if quick else 15

    cases = [(algorithm, attack) for algorithm in algorithms for attack in attacks]
    scenarios = [
        adversarial_scenario(
            default_params(7, authenticated=(algorithm == "auth")),
            algorithm,
            attack=attack,
            rounds=rounds,
            seed=stable_seed(attack, modulus=500),
        )
        for algorithm, attack in cases
    ]
    def row(index, result):
        algorithm, attack = cases[index]
        return (algorithm, attack, result.precision, result.completed_round, result.guarantees_hold)

    table = Table(
        title="E10: guarantees under every tolerated Byzantine strategy (n=7, worst-case f)",
        headers=["algorithm", "attack", "measured skew", "completed round", "all guarantees hold"],
    )
    table.add_rows(stream_rows(scenarios, row))
    return table
