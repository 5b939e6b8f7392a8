"""E1 -- Agreement / precision of the authenticated algorithm.

Claim reproduced: with up to ``f = ceil(n/2) - 1`` Byzantine processes, the
mutual skew of correct logical clocks never exceeds the analytic bound
``Dmax``, for all time, under worst-case clock rates, targeted message delays
and active adversaries.

The table reports, per (n, attack): the measured worst-case steady-state skew,
the analytic bound, and whether the bound held.
"""

from __future__ import annotations

from ..analysis.report import Table
from ..core.bounds import AUTH, precision_bound
from .common import adversarial_scenario, default_params, stable_seed, stream_rows


def run_experiment(quick: bool = True) -> Table:
    """Run E1 and return its table."""
    sizes = [4, 7] if quick else [4, 7, 10, 16]
    attacks = ["eager", "two_faced"] if quick else ["eager", "two_faced", "skew_max", "forge_flood"]
    rounds = 8 if quick else 25

    cases = [(n, attack) for n in sizes for attack in attacks]
    scenarios = [
        adversarial_scenario(
            default_params(n, authenticated=True),
            "auth",
            attack=attack,
            rounds=rounds,
            seed=stable_seed(n, attack, modulus=1000),
        )
        for n, attack in cases
    ]

    def row(index, result):
        n, attack = cases[index]
        bound = precision_bound(result.params, AUTH)
        return (n, result.params.f, attack, result.precision, bound, result.precision <= bound + 1e-9)

    table = Table(
        title="E1: precision of the authenticated algorithm at f = ceil(n/2)-1",
        headers=["n", "f", "attack", "measured skew", "bound Dmax", "within bound"],
    )
    table.add_rows(stream_rows(scenarios, row))
    table.add_note("skew measured exactly over all logical-clock breakpoints, steady state")
    return table
