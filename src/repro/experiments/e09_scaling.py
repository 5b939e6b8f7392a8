"""E9 -- Precision scaling in the model parameters.

Claim reproduced: the achievable skew scales as ``O(tdel + rho * P)`` -- it
grows (roughly linearly) with the delay bound and with the drift accumulated
per period, and the analytic bound tracks the same shape.
"""

from __future__ import annotations

from ..analysis.report import Table
from ..core.bounds import AUTH, precision_bound
from .common import adversarial_scenario, default_params, stream_rows


def run_tdel_sweep(quick: bool = True) -> Table:
    tdels = [0.005, 0.01, 0.02] if quick else [0.002, 0.005, 0.01, 0.02, 0.05]
    rounds = 8 if quick else 20
    scenarios = [
        adversarial_scenario(
            default_params(7, authenticated=True, tdel=tdel),
            "auth",
            attack="skew_max",
            rounds=rounds,
            seed=int(tdel * 1e4),
        )
        for tdel in tdels
    ]

    def row(index, result):
        tdel = tdels[index]
        bound = precision_bound(result.params, AUTH)
        return (tdel, result.precision, bound, result.precision / tdel)

    table = Table(
        title="E9a: precision vs maximum message delay (auth, n=7, rho=1e-4, P=1)",
        headers=["tdel", "measured skew", "bound Dmax", "skew / tdel"],
    )
    table.add_rows(stream_rows(scenarios, row))
    return table


def run_drift_sweep(quick: bool = True) -> Table:
    rho_periods = [(1e-4, 1.0), (1e-3, 1.0), (1e-3, 4.0)] if quick else [
        (1e-5, 1.0),
        (1e-4, 1.0),
        (1e-3, 1.0),
        (1e-3, 4.0),
        (5e-3, 4.0),
    ]
    rounds = 8 if quick else 20
    scenarios = [
        adversarial_scenario(
            default_params(7, authenticated=True, rho=rho, period=period),
            "auth",
            attack="skew_max",
            rounds=rounds,
            seed=int(rho * 1e6),
        )
        for rho, period in rho_periods
    ]
    def row(index, result):
        rho, period = rho_periods[index]
        bound = precision_bound(result.params, AUTH)
        return (rho, period, rho * period, result.precision, bound)

    table = Table(
        title="E9b: precision vs drift-per-period rho*P (auth, n=7, tdel=0.01)",
        headers=["rho", "period P", "rho*P", "measured skew", "bound Dmax"],
    )
    table.add_rows(stream_rows(scenarios, row))
    return table


def run_experiment(quick: bool = True) -> list[Table]:
    return [run_tdel_sweep(quick), run_drift_sweep(quick)]
