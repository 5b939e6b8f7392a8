"""E5 -- Resynchronization period bounds.

Claim reproduced: the real time between consecutive resynchronizations of any
correct process stays within ``[beta_min, beta_max]``, for both algorithm
variants and across drift rates.
"""

from __future__ import annotations

from ..analysis.report import Table
from ..core.bounds import beta_max, beta_min
from .common import adversarial_scenario, default_params, stream_rows


def run_experiment(quick: bool = True) -> Table:
    rhos = [1e-4, 1e-3] if quick else [1e-5, 1e-4, 1e-3, 5e-3]
    algorithms = ["auth", "echo"]
    rounds = 8 if quick else 20

    cases = [(algorithm, rho) for algorithm in algorithms for rho in rhos]
    scenarios = [
        adversarial_scenario(
            default_params(7, authenticated=(algorithm == "auth"), rho=rho),
            algorithm,
            attack="eager",
            rounds=rounds,
            seed=int(rho * 1e6),
        )
        for algorithm, rho in cases
    ]
    def row(index, result):
        algorithm, rho = cases[index]
        lo = beta_min(result.params, result.scenario.st_algorithm)
        hi = beta_max(result.params, result.scenario.st_algorithm)
        stats = result.period_stats
        ok = stats.count > 0 and stats.minimum >= lo - 1e-9 and stats.maximum <= hi + 1e-9
        return (algorithm, rho, lo, stats.minimum, stats.maximum, hi, ok)

    table = Table(
        title="E5: resynchronization intervals vs analytic bounds",
        headers=["algorithm", "rho", "beta_min", "measured min", "measured max", "beta_max", "within bounds"],
    )
    table.add_rows(stream_rows(scenarios, row))
    return table
