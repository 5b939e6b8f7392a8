#!/usr/bin/env python3
"""Quickstart: synchronize 7 clocks, 3 of which are Byzantine.

This example builds the worst-case tolerated configuration of the
authenticated Srikanth-Toueg algorithm (n = 7, f = 3 = ceil(n/2) - 1),
runs it against an active adversary, and compares the measured precision,
resynchronization period and clock rate against the analytic bounds.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

from repro import AUTH, Scenario, params_for, run_scenario, theoretical_bounds
from repro.analysis import skew_timeseries
from repro.analysis.report import Table


def main() -> None:
    # 1. Model parameters: 7 nodes, up to 3 Byzantine, 10 ms delay bound,
    #    1e-4 drift, resynchronization every second.
    params = params_for(n=7, authenticated=True, rho=1e-4, tdel=0.01, period=1.0,
                        initial_offset_spread=0.005)
    bounds = theoretical_bounds(params, AUTH)

    print("Model:", params.describe())
    print(f"Analytic precision bound Dmax   : {bounds.precision * 1e3:.3f} ms")
    print(f"Analytic period window          : [{bounds.beta_min:.4f}, {bounds.beta_max:.4f}] s")
    print(f"Analytic clock-rate window      : [{bounds.rate_min:.6f}, {bounds.rate_max:.6f}]")
    print()

    # 2. Run 20 resynchronization rounds with the harshest tolerated setup:
    #    extreme clock rates, targeted delays, and eager+two-faced Byzantine nodes.
    scenario = Scenario(
        params=params,
        algorithm="auth",
        attack="skew_max",
        rounds=20,
        clock_mode="extreme",
        delay_mode="targeted",
        seed=42,
    )
    result = run_scenario(scenario, trace_level="full")  # keep the trace for step 4

    # 3. Compare measurement against theory.
    table = Table(
        title="Measured vs analytic guarantees (n=7, f=3, skew_max adversary)",
        headers=["quantity", "measured", "bound", "holds"],
    )
    for check in result.guarantees.checks:
        table.add_row(check.name, check.measured, check.bound, check.holds)
    print(table.render())
    print()

    # 4. A coarse skew-over-time series (what a plot would show): flat, bounded.
    series = skew_timeseries(result.trace, samples=10)
    print("skew over time (ms):", " ".join(f"{skew * 1e3:.2f}" for _, skew in series))
    print()
    print("all guarantees hold:", result.guarantees_hold)


if __name__ == "__main__":
    main()
