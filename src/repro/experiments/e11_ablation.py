"""E11 -- Ablations of the design choices.

Two knobs called out in docs/experiments.md (E11):

* the adjustment constant ``alpha`` (the paper's choice is ``(1+rho)*tdel``):
  smaller values make benign adjustments negative (clocks set back), larger
  values inflate the accuracy excess;
* the monotonic variant (suppress backward corrections): precision is
  preserved in practice while the clock never runs backwards, at the cost of
  the worst-case analysis.
"""

from __future__ import annotations

from ..analysis.report import Table
from ..core.bounds import AUTH, long_run_rate_bounds, precision_bound
from .common import adversarial_scenario, default_params, run_batch


def run_alpha_sweep(quick: bool = True) -> Table:
    multipliers = [1.0, 2.0] if quick else [1.0, 1.5, 2.0, 4.0]
    rounds = 8 if quick else 20
    base = default_params(7, authenticated=True)
    scenarios = [
        adversarial_scenario(
            base.with_(alpha=multiplier * (1.0 + base.rho) * base.tdel),
            "auth",
            attack="eager",
            rounds=rounds,
            seed=int(multiplier * 10),
        )
        for multiplier in multipliers
    ]
    # The numbers stream at either level: the full-trace pin only keeps these lanes on the
    # event loop, where perfbench's gated egrid_full lane counts expect them.
    results = run_batch(scenarios, check_guarantees=False, trace_level="full")

    table = Table(
        title="E11a: effect of the adjustment constant alpha (auth, n=7)",
        headers=["alpha / ((1+rho)*tdel)", "measured skew", "bound Dmax", "max rate bound", "max backward adj"],
    )
    for multiplier, result in zip(multipliers, results):
        params = result.params
        _, rate_max = long_run_rate_bounds(params, AUTH)
        table.add_row(
            multiplier,
            result.precision,
            precision_bound(params, AUTH),
            rate_max,
            result.max_backward_adjustment,
        )
    return table


def run_monotonic_ablation(quick: bool = True) -> Table:
    rounds = 8 if quick else 20
    cases = [(algorithm, monotonic) for algorithm in ["auth", "echo"] for monotonic in [False, True]]
    scenarios = [
        adversarial_scenario(
            default_params(7, authenticated=(algorithm == "auth")),
            algorithm,
            attack="skew_max",
            rounds=rounds,
            seed=41,
            monotonic=monotonic,
        )
        for algorithm, monotonic in cases
    ]
    results = run_batch(scenarios, check_guarantees=False, trace_level="full")  # the pin above

    table = Table(
        title="E11b: monotonic-clock variant (backward corrections suppressed)",
        headers=["algorithm", "monotonic", "measured skew", "max backward adj", "completed round"],
    )
    for (algorithm, monotonic), result in zip(cases, results):
        table.add_row(
            algorithm,
            monotonic,
            result.precision,
            result.max_backward_adjustment,
            result.completed_round,
        )
    return table


def run_experiment(quick: bool = True) -> list[Table]:
    return [run_alpha_sweep(quick), run_monotonic_ablation(quick)]
