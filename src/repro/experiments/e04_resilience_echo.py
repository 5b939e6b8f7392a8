"""E4 -- Resilience threshold of the non-authenticated (echo) algorithm.

Claim reproduced: without signatures the algorithm tolerates any ``f < n/3``
faults, and the bound is tight -- ``ceil(n/3)`` colluders can start echo
avalanches without any honest init and break the guarantees.
"""

from __future__ import annotations

from ..analysis.report import Table
from ..core.bounds import ECHO, precision_bound
from .common import adversarial_scenario, default_params, stream_rows


def run_experiment(quick: bool = True) -> Table:
    sizes = [4, 7] if quick else [4, 7, 10, 13]
    rounds = 6 if quick else 15

    scenarios, checks = [], []
    for n in sizes:
        params = default_params(n, authenticated=False)
        scenarios.append(adversarial_scenario(params, "echo", attack="skew_max", rounds=rounds, seed=n))
        checks.append(None)
        scenarios.append(
            adversarial_scenario(
                params,
                "echo",
                attack="echo_cabal",
                rounds=rounds,
                seed=n + 100,
                actual_faults=params.f + 1,
            )
        )
        checks.append(False)
    def row(index, result):
        scenario = scenarios[index]
        bound = precision_bound(scenario.params, ECHO)
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
        title="E4: echo (non-authenticated) algorithm at and above the resilience threshold",
        headers=["n", "assumed f", "actual faults", "attack", "measured skew", "bound Dmax", "within bound"],
    )
    table.add_rows(stream_rows(scenarios, row, check_guarantees=checks))
    table.add_note("the last row of each pair runs the algorithm out of spec and is expected to violate the bound")
    return table
