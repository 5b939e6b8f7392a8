"""Recorder parity: both trace levels equal the post-hoc oracle.

Every run is measured by streaming: at ``trace_level="metrics"`` by
:class:`~repro.sim.recorder.OnlineMetricsRecorder`, at ``"full"`` by the
:class:`~repro.sim.recorder.FullTraceRecorder` that also writes the trace.
The oracle (``tests/oracle.py``) measures the same execution a different
way: post hoc, from the full trace, by collecting every breakpoint and
evaluating both sides of each jump.  For a seed x scenario grid -- covering
both Srikanth-Toueg variants, the baselines, benign and Byzantine
adversaries (including crash faults), start-up, late joiners and the
monotonic ablation -- every measured field of *both* results, guarantee
verdicts included, must be float-for-float identical to the oracle's.  The
streamed history fields E6, E7 and E11 read (steady start, skew after round
1, backward corrections, join latency) must equal the trace queries in
``repro.analysis.metrics`` and ``repro.core.join``, on that grid and on the
quick E6/E7/E11 cells.
Exact equality (``==``, no tolerance) is the contract: the recorder
evaluates the very same breakpoints the oracle walks, so it is not an
approximation.
"""

from __future__ import annotations


import pytest

from repro.analysis import metrics
from repro.core.join import join_time, joined
from repro.experiments import EXPERIMENTS
from repro.experiments.common import adversarial_scenario, benign_scenario, default_params, set_observer
from repro.workloads.scenarios import Scenario, resolve_check_guarantees, run_scenario

from oracle import measure_result

ACCURACY_EXACT_FIELDS = (
    "slowest_long_run_rate",
    "fastest_long_run_rate",
    "slowest_window_rate",
    "fastest_window_rate",
    "envelope_a",
    "envelope_b",
    "worst_offset_from_real_time",
)


def _grid() -> list[Scenario]:
    scenarios: list[Scenario] = []
    for seed in (0, 11):
        scenarios.append(
            adversarial_scenario(default_params(7, authenticated=True), "auth", attack="eager", rounds=6, seed=seed)
        )
        scenarios.append(
            adversarial_scenario(
                default_params(7, authenticated=False), "echo", attack="skew_max", rounds=6, seed=seed
            )
        )
    scenarios.append(
        adversarial_scenario(default_params(7, authenticated=True), "auth", attack="crash", rounds=6, seed=3)
    )
    scenarios.append(
        adversarial_scenario(default_params(7, authenticated=False), "echo", attack="crash", rounds=6, seed=4)
    )
    # Benign scenarios use "random" (drifting piecewise-linear) clocks, which
    # exercise the breakpoint walk hardest.
    scenarios.append(benign_scenario(default_params(5, authenticated=True), "auth", rounds=5, seed=5))
    scenarios.append(benign_scenario(default_params(7, authenticated=False), "echo", rounds=5, seed=6))
    # Out-of-spec fault load (no guarantee checking by default).
    scenarios.append(
        adversarial_scenario(
            default_params(5, authenticated=True, f=1), "auth", attack="eager", rounds=5, seed=7, actual_faults=2
        )
    )
    # Start-up from scratch and a late joiner.
    scenarios.append(
        Scenario(
            params=default_params(5, authenticated=True),
            algorithm="auth",
            attack="silent",
            rounds=5,
            use_startup=True,
            boot_spread=0.004,
            clock_mode="extreme",
            delay_mode="uniform",
            seed=8,
        )
    )
    scenarios.append(
        Scenario(
            params=default_params(5, authenticated=True),
            algorithm="auth",
            attack="silent",
            rounds=6,
            joiner_count=1,
            join_time=2.5,
            clock_mode="extreme",
            delay_mode="uniform",
            seed=9,
        )
    )
    # Monotonic ablation (suppressed backward corrections).
    scenarios.append(
        adversarial_scenario(
            default_params(7, authenticated=True), "auth", attack="skew_max", rounds=5, seed=10, monotonic=True
        )
    )
    # Baselines: averaging, naive follow-the-max, and free-running pulses.
    scenarios.append(benign_scenario(default_params(5, authenticated=False), "lundelius_welch", rounds=4, seed=12))
    scenarios.append(
        benign_scenario(default_params(5, authenticated=False), "lamport_melliar_smith", rounds=4, seed=13)
    )
    scenarios.append(benign_scenario(default_params(5, authenticated=False), "sync_to_max", rounds=4, seed=14))
    scenarios.append(benign_scenario(default_params(5, authenticated=False), "free_running", rounds=4, seed=15))
    return scenarios


def _checks(report):
    return [(c.name, c.measured, c.bound, c.holds, c.direction) for c in report.checks]


def _assert_history_fields(result, scenario: Scenario, trace) -> None:
    """The four streamed history fields equal the trace queries they replace."""
    assert result.steady_start == metrics.steady_state_start(trace)
    assert result.settled_skew == metrics.skew_after_round(trace, 1)
    assert result.max_backward_adjustment == metrics.max_backward_adjustment(trace)
    assert result.join_latencies == tuple(
        join_time(trace, pid, scenario.join_time) if joined(trace, pid) else float("inf")
        for pid in scenario.joiner_pids
    )


@pytest.mark.parametrize("scenario", _grid(), ids=lambda s: f"{s.name}-seed{s.seed}")
def test_streamed_metrics_equal_full_trace(scenario: Scenario) -> None:
    full = run_scenario(scenario, trace_level="full")
    fast = run_scenario(scenario, trace_level="metrics")

    assert full.trace is not None and full.trace_level == "full"
    assert fast.trace is None and fast.trace_level == "metrics"

    check = resolve_check_guarantees(scenario, None)
    oracle = measure_result(
        full.trace, scenario.params, scenario.rounds, scenario.st_algorithm if check else None
    )

    for result in (full, fast):
        # Precision (steady-state and overall worst-case skew): exact.
        assert result.precision == oracle.precision
        assert result.precision_overall == oracle.precision_overall

        # Resynchronization structure: exact.
        assert result.period_stats == oracle.period_stats
        assert result.acceptance_spread == oracle.acceptance_spread

        # Rounds, message complexity and the run's end: exact.
        assert result.completed_round == oracle.completed_round
        assert result.total_messages == oracle.total_messages
        assert result.messages_per_round == oracle.messages_per_round
        assert result.effective_horizon == oracle.effective_horizon

        # Accuracy: same presence; exact on every quantity, including the
        # window-rate extremes.
        assert (result.accuracy is None) == (oracle.accuracy is None)
        if oracle.accuracy is not None:
            for field in ACCURACY_EXACT_FIELDS:
                assert getattr(result.accuracy, field) == getattr(oracle.accuracy, field), field

        # Guarantee verdicts: same checks, same measured values, same bounds.
        assert (result.guarantees is None) == (oracle.guarantees is None)
        if oracle.guarantees is not None:
            assert _checks(result.guarantees) == _checks(oracle.guarantees)
            assert result.guarantees_hold == oracle.guarantees.all_hold

        _assert_history_fields(result, scenario, full.trace)


@pytest.mark.parametrize("exp_id, cells", [("E6", 4), ("E7", 4), ("E11", 6)])
def test_history_fields_equal_trace_queries_on_experiment_cells(exp_id, cells) -> None:
    observed: list = []
    set_observer(lambda result: observed.append(result.scenario))
    try:
        EXPERIMENTS[exp_id].run(quick=True)
    finally:
        set_observer(None)
    assert len(observed) == cells
    settled_none = 0
    for scenario in observed:
        full = run_scenario(scenario, check_guarantees=False, trace_level="full")
        fast = run_scenario(scenario, check_guarantees=False)
        for result in (full, fast):
            _assert_history_fields(result, scenario, full.trace)
        settled_none += fast.settled_skew is None
    # A joiner up after round 1 never accepts it: every E7 cell has no settled skew.
    assert settled_none == (cells if exp_id == "E7" else 0)
