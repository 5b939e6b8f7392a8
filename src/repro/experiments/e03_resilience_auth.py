"""E3 -- Resilience threshold of the authenticated algorithm.

Claim reproduced: the authenticated algorithm tolerates any ``f < n/2`` faults
(guarantees hold under every implemented attack), and the bound is tight --
with ``ceil(n/2)`` colluding processes the adversary can fabricate acceptance
proofs and drive the skew far beyond the bound.
"""

from __future__ import annotations

from ..analysis.report import Table
from ..core.bounds import AUTH, precision_bound
from .common import adversarial_scenario, default_params, stream_rows


def run_experiment(quick: bool = True) -> Table:
    sizes = [4, 6] if quick else [4, 6, 8, 10]
    rounds = 6 if quick else 15

    scenarios, checks = [], []
    for n in sizes:
        params = default_params(n, authenticated=True)
        # Within spec: the strongest tolerated attack.
        scenarios.append(adversarial_scenario(params, "auth", attack="skew_max", rounds=rounds, seed=n))
        checks.append(None)
        # Above spec: one extra faulty process forms a forging cabal.
        scenarios.append(
            adversarial_scenario(
                params,
                "auth",
                attack="rushing_cabal",
                rounds=rounds,
                seed=n + 100,
                actual_faults=params.f + 1,
            )
        )
        checks.append(False)
    def row(index, result):
        scenario = scenarios[index]
        bound = precision_bound(scenario.params, AUTH)
        return (
            scenario.params.n,
            scenario.params.f,
            scenario.actual_faults,
            scenario.attack,
            result.precision,
            bound,
            result.precision <= bound + 1e-9,
        )

    table = Table(
        title="E3: authenticated algorithm at and above the resilience threshold",
        headers=["n", "assumed f", "actual faults", "attack", "measured skew", "bound Dmax", "within bound"],
    )
    table.add_rows(stream_rows(scenarios, row, check_guarantees=checks))
    table.add_note("the last row of each pair runs the algorithm out of spec and is expected to violate the bound")
    return table
