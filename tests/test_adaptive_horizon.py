"""The stop rule: a run halts on the event that completes the target round.

``Simulation.run_until_round`` halts on the recorder's own round tracking
(O(1) per event).  With ``grace=0`` it must stop on the *same event* a
per-event scan of every honest process's round stops on -- the reference
``_polled`` below, built from the public ``step()`` -- so every streamed
metric and every full trace is identical between the two; a positive grace
extends the run past completion by exactly that much real time.  The grid
covers the cases where the round bookkeeping is easiest to get wrong: crash
faults, start-up from scratch, late joiners, drifting (piecewise-linear)
clocks, and tie-heavy worst-case delay policies.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.analysis.serialize import trace_to_dict
from repro.experiments.common import adversarial_scenario, benign_scenario, default_params
from repro.workloads.scenarios import Scenario, build_cluster, run_scenario


def _grid() -> list[Scenario]:
    return [
        # Crash faults: the crash ceiling must not make the stop fire early.
        adversarial_scenario(default_params(7, authenticated=True), "auth", attack="crash", rounds=6, seed=3),
        # Start-up from scratch (round 0 + staggered boots).
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
        ),
        # A late joiner holds the completed round at 0 until it catches up.
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
        ),
        # Drifting piecewise-linear clocks (benign scenarios use "random").
        benign_scenario(default_params(5, authenticated=True), "auth", rounds=5, seed=5),
        benign_scenario(default_params(7, authenticated=False), "echo", rounds=5, seed=6),
        # Worst-case delays produce many same-instant deliveries: the
        # stop must break mid-instant exactly like the poll does.
        dataclasses.replace(
            adversarial_scenario(
                default_params(7, authenticated=True), "auth", attack="skew_max", rounds=6, seed=2
            ),
            delay_mode="max",
        ),
        dataclasses.replace(
            adversarial_scenario(
                default_params(7, authenticated=True), "auth", attack="eager", rounds=6, seed=4
            ),
            delay_mode="min",
        ),
    ]


def _result_fields(result):
    return (
        result.precision,
        result.precision_overall,
        result.period_stats,
        result.acceptance_spread,
        result.accuracy,
        result.completed_round,
        result.total_messages,
        result.messages_per_round,
        result.effective_horizon,
        result.stopped_early,
        None
        if result.guarantees is None
        else [(c.name, c.measured, c.bound, c.holds, c.direction) for c in result.guarantees.checks],
    )


def _polled(scenario: Scenario, trace_level: str):
    """Reference stop rule: fire one event at a time, scan every honest round after each."""
    sim = build_cluster(scenario, trace_level=trace_level).sim
    while sim.recorder.min_completed_round() < scenario.rounds:
        assert sim.step(), "every scenario here completes its target round"
    assert sim.now <= scenario.horizon()
    return sim.recorder.finalize(sim.now, sim.network.stats)


def _stopped(scenario: Scenario, trace_level: str):
    sim = build_cluster(scenario, trace_level=trace_level).sim
    observed = sim.run_until_round(scenario.rounds, t_max=scenario.horizon())
    assert sim.stopped_early
    return observed


@pytest.mark.parametrize("scenario", _grid(), ids=lambda s: f"{s.name}-seed{s.seed}")
def test_adaptive_metrics_run_equals_static(scenario: Scenario) -> None:
    assert _stopped(scenario, "metrics") == _polled(scenario, "metrics")


@pytest.mark.parametrize("scenario", _grid()[:3], ids=lambda s: f"{s.name}-seed{s.seed}")
def test_adaptive_full_trace_is_byte_identical(scenario: Scenario) -> None:
    assert trace_to_dict(_stopped(scenario, "full")) == trace_to_dict(_polled(scenario, "full"))


def test_adaptive_summary_equality_at_engine_level() -> None:
    scenario = adversarial_scenario(
        default_params(7, authenticated=True), "auth", attack="skew_max", rounds=8, seed=17
    )
    assert _stopped(scenario, "metrics") == _polled(scenario, "metrics")


def test_stop_never_fires_before_target_round_under_worst_case_delays() -> None:
    # Every message takes the full tdel: round completion is as late as the
    # model allows, and acceptances pile up on identical timestamps.  The
    # stop must still wait for the last process of the last round.
    scenario = dataclasses.replace(
        adversarial_scenario(
            default_params(7, authenticated=True), "auth", attack="skew_max", rounds=7, seed=23
        ),
        delay_mode="max",
    )
    summary = _stopped(scenario, "metrics")
    assert summary.completed_round >= scenario.rounds
    # The completing instant cannot precede `rounds` sequential broadcasts.
    assert summary.end_time >= scenario.rounds * scenario.params.tdel


def test_grace_extends_the_adapted_horizon_exactly() -> None:
    scenario = adversarial_scenario(
        default_params(5, authenticated=True), "auth", attack="eager", rounds=5, seed=31
    )
    for trace_level in ("metrics", "full"):
        tight = run_scenario(scenario, trace_level=trace_level)
        graced = run_scenario(dataclasses.replace(scenario, grace=0.5), trace_level=trace_level)
        assert tight.stopped_early and graced.stopped_early, trace_level
        assert graced.effective_horizon == tight.effective_horizon + 0.5, trace_level
        assert graced.effective_horizon < scenario.horizon()
        assert graced.completed_round >= tight.completed_round


def test_infeasible_run_falls_back_to_the_static_budget() -> None:
    # A target round the execution never reaches: the run must use the full
    # static budget.
    scenario = benign_scenario(default_params(5, authenticated=True), "auth", rounds=3, seed=41)
    t_max = scenario.horizon()
    handles = build_cluster(scenario, trace_level="metrics")
    summary = handles.sim.run_until_round(10_000, t_max=t_max)
    assert not handles.sim.stopped_early
    assert summary.end_time == t_max
    assert summary.completed_round < 10_000


def test_the_per_event_poll_cannot_be_selected() -> None:
    # perfbench/layers.py still passes adaptive=True; False has nothing left to select.
    scenario = benign_scenario(default_params(4, authenticated=True), "auth", rounds=3, seed=1)
    sim = build_cluster(scenario, trace_level="metrics").sim
    with pytest.raises(ValueError, match="one stop rule"):
        sim.run_until_round(scenario.rounds, t_max=scenario.horizon(), adaptive=False)


def test_negative_grace_is_rejected() -> None:
    with pytest.raises(ValueError, match="grace"):
        benign_scenario(default_params(4, authenticated=True), "auth", rounds=3, seed=1, grace=-0.1)


def test_grace_on_already_completed_target_never_rewinds_time() -> None:
    # Arming a target that is already complete (a resumed full-trace segment)
    # must cap the grace window at arm time: no event beyond it may fire, and
    # simulated time must never move backwards.
    scenario = benign_scenario(default_params(5, authenticated=True), "auth", rounds=3, seed=13)
    handles = build_cluster(scenario, trace_level="full")
    sim = handles.sim
    sim.run_until_round(scenario.rounds, t_max=scenario.horizon())
    first_end = sim.now
    trace = sim.run_until_round(scenario.rounds, t_max=scenario.horizon(), grace=0.25)
    assert sim.now >= first_end
    assert sim.now == first_end + 0.25
    assert trace.end_time == sim.now


# -- opt-in early abort of provably infeasible runs --------------------------


def _crashing_cluster(trace_level: str, crash_at: float = 1.5):
    """A feasible scenario whose honest process 0 halts at ``crash_at``."""
    scenario = benign_scenario(default_params(5, authenticated=True), "auth", rounds=50, seed=19)
    handles = build_cluster(scenario, trace_level=trace_level)
    handles.sim.schedule_at(crash_at, handles.honest[0].halt)
    return scenario, handles


@pytest.mark.parametrize("trace_level", ["metrics", "full"], ids=["metrics-adaptive", "full-adaptive"])
def test_abort_unreachable_stops_at_the_fatal_crash(trace_level: str) -> None:
    crash_at = 1.5
    scenario, handles = _crashing_cluster(trace_level, crash_at)
    t_max = scenario.horizon()
    observed = handles.sim.run_until_round(scenario.rounds, t_max=t_max, abort_unreachable=True)
    # The crash caps the completable rounds below the target; the run must
    # end on the crash event itself, not at the static budget.
    assert handles.sim.stopped_early
    assert observed.end_time == crash_at
    assert handles.sim.recorder.crash_ceiling < scenario.rounds
    if trace_level == "full":  # a metrics summary keeps no annotations
        assert any("unreachable" in note for note in observed.notes)


@pytest.mark.parametrize("trace_level", ["metrics", "full"])
def test_abort_unreachable_is_off_by_default(trace_level: str) -> None:
    scenario, handles = _crashing_cluster(trace_level)
    t_max = scenario.horizon()
    observed = handles.sim.run_until_round(scenario.rounds, t_max=t_max)
    # Without the opt-in, the infeasible run burns the full static budget --
    # the behaviour the measured end times of failed runs rely on.
    assert not handles.sim.stopped_early
    assert observed.end_time == t_max


def test_abort_unreachable_never_changes_a_feasible_run() -> None:
    scenario = benign_scenario(default_params(5, authenticated=True), "auth", rounds=5, seed=19)
    plain = run_scenario(scenario, trace_level="metrics")
    flagged = run_scenario(
        dataclasses.replace(scenario, abort_unreachable=True), trace_level="metrics"
    )
    assert _result_fields(flagged) == _result_fields(plain)


def test_abort_unreachable_threads_through_run_scenario() -> None:
    # Crash faults below the resilience bound leave the run feasible, so the
    # scenario-level flag must not change anything for the stock attacks; the
    # engine-level tests above cover the aborting path.  Here we check the
    # flag survives replication (each replicate keeps it).
    scenario = dataclasses.replace(
        benign_scenario(default_params(5, authenticated=True), "auth", rounds=4, seed=7),
        abort_unreachable=True,
        replications=2,
        shards=2,
        name="",
    )
    result = run_scenario(scenario, trace_level="metrics")
    reference = run_scenario(
        dataclasses.replace(scenario, abort_unreachable=False, name=""), trace_level="metrics"
    )
    assert _result_fields(result) == _result_fields(reference)
