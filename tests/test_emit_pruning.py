"""The event loop's stale-round rule is sound: pruning changes nothing that is observed.

``Network._emit`` leaves a message off the event queue when its round is
below the floor its (honest) destination published.  Every cell below runs
twice -- normally, and with floor publishing switched off by a test-only
monkeypatch -- and must produce the same trace or summary, the same
``NetworkStats``, the same message samples and the same stop time, with
strictly fewer fired events where relayed proofs make stale traffic (auth).
Faulty destinations and passive joiners never publish and keep everything.
"""

from __future__ import annotations

import dataclasses
from typing import NamedTuple

import pytest

from repro import obs
from repro.analysis.serialize import trace_to_dict
from repro.core.messages import RoundContent, SignedRound
from repro.core.process import ClockSyncProcess
from repro.crypto.signatures import sign
from repro.experiments.common import adversarial_scenario, benign_scenario, default_params
from repro.faults.behaviors import ReplayAttacker
from repro.sim.events import EventQueue
from repro.sim.network import Network
from repro.workloads.scenarios import Scenario, build_cluster, run_scenario


def auth(attack, n=7, rounds=5, **kwargs):
    params = default_params(n, authenticated=True)
    return adversarial_scenario(params, "auth", attack=attack, rounds=rounds, seed=31, **kwargs)


def echo(attack, n=7, rounds=4, **kwargs):
    return Scenario(
        params=default_params(n, authenticated=False), algorithm="echo", attack=attack,
        rounds=rounds, clock_mode="extreme", delay_mode="uniform", seed=37, **kwargs,
    )


#: ``id -> (scenario, honest crash time or None, whether stale traffic must exist)``.
CELLS = {
    "auth-skew_max": (auth("skew_max"), None, True),
    "auth-eager": (auth("eager"), None, True),
    "auth-two_faced": (auth("two_faced"), None, True),
    "auth-replay": (auth("replay"), None, True),
    "auth-forge_flood": (auth("forge_flood", rounds=3), None, True),
    "echo-two_faced": (echo("two_faced"), None, False),
    "echo-eager": (echo("eager"), None, False),
    "auth-startup-joiner": (
        auth("skew_max", use_startup=True, boot_spread=0.05, joiner_count=1, join_time=2.5), None, True,
    ),
    "echo-startup-joiner": (
        echo("two_faced", use_startup=True, boot_spread=0.05, joiner_count=1, join_time=2.5), None, False,
    ),
    "auth-monotonic": (auth("skew_max", monotonic=True), None, True),
    "auth-honest-crash": (
        benign_scenario(default_params(5, authenticated=True), "auth", rounds=50, seed=19), 1.5, True,
    ),
    "auth-grace": (auth("skew_max", grace=0.3), None, True),
}


class Run(NamedTuple):
    """Everything one run lets an observer see, plus the two engine counters."""

    observation: object  # the full trace as a dict, or the OnlineMetricsSummary
    stats: dict
    samples: object
    stop_time: float
    events: int
    pruned: int


def run_cell(scenario, trace_level, crash_at) -> Run:
    sample = 1 if trace_level == "metrics" else None
    handles = build_cluster(scenario, trace_level=trace_level, sample_messages=sample)
    sim = handles.sim
    if crash_at is not None:
        sim.schedule_at(crash_at, handles.honest[0].halt)
    observed = sim.run_until_round(scenario.rounds, t_max=scenario.horizon(), grace=scenario.grace)
    if trace_level == "full":
        observation, samples = trace_to_dict(observed), None
    else:
        observation, samples = observed, observed.message_samples
    return Run(
        observation, dataclasses.asdict(sim.network.stats), samples, sim.now, sim.events_fired, sim.network.pruned
    )


@pytest.mark.parametrize("trace_level", ["full", "metrics"])
@pytest.mark.parametrize("cell_id", list(CELLS))
def test_pruning_changes_nothing_observed(cell_id, trace_level, monkeypatch):
    scenario, crash_at, stale_traffic = CELLS[cell_id]
    pruning = run_cell(scenario, trace_level, crash_at)
    monkeypatch.setattr(Network, "publish_floor", lambda self, pid, floor: None)
    plain = run_cell(scenario, trace_level, crash_at)

    assert plain.pruned == 0, "the monkeypatch did not disable pruning"
    assert pruning.observation == plain.observation, "trace / summary differs"
    assert pruning.stats == plain.stats, "NetworkStats differ"
    assert pruning.samples == plain.samples, "message samples differ"
    assert pruning.stop_time == plain.stop_time, "stop time differs"
    if trace_level == "metrics":
        assert len(pruning.samples) == pruning.stats["total_messages"]  # pruned ones are sampled too
    # Every pruned message is exactly one delivery event that never fires --
    # unless the run stopped while it was still in flight.
    assert plain.events - pruning.pruned <= pruning.events <= plain.events
    if stale_traffic:
        assert pruning.pruned > 0
        assert pruning.events < plain.events


def test_scenario_run_span_reports_events_and_pruned(monkeypatch):
    popped = []  # what each EventQueue.pop_until call returned, in call order
    pop_until = EventQueue.pop_until

    def spy(queue, limit):
        event = pop_until(queue, limit)
        popped.append(event)
        return event

    monkeypatch.setattr(EventQueue, "pop_until", spy)
    scenario = auth("skew_max", kernel="event")
    plain = run_scenario(scenario, trace_level="metrics")
    untraced = list(popped)
    obs.enable()
    try:
        traced = run_scenario(scenario, trace_level="metrics")
        spans = [span for span in obs.tracer().all_spans() if span.name == "scenario.run"]
    finally:
        obs.disable()
    assert traced == plain  # float-neutral
    assert len(spans) == 1
    # pop_until is the run loops' one pop path: one pop, one event fired (a
    # last call may find nothing due, which ends the run).
    for calls in (untraced, popped[len(untraced):]):
        assert None not in calls[:-1]
        assert spans[0].attrs["events"] == sum(event is not None for event in calls)
    assert 0 < spans[0].attrs["pruned"] < spans[0].attrs["events"]


@pytest.mark.parametrize("scenario", [auth("skew_max", n=10), echo("two_faced", n=10)], ids=["auth", "echo"])
def test_try_accept_is_entered_only_for_a_touched_round_that_can_be_pending(scenario, monkeypatch):
    entries = {}
    original = ClockSyncProcess.try_accept

    def counted(self):
        entries[self.pid] = entries.get(self.pid, 0) + 1
        original(self)

    monkeypatch.setattr(ClockSyncProcess, "try_accept", counted)
    handles = build_cluster(scenario, trace_level="metrics")
    handles.sim.run_until_round(scenario.rounds, t_max=scenario.horizon())
    for process in handles.honest:
        assert len(process.accepted_rounds) >= scenario.rounds
        # One unconditional entry per own announcement (auth only) plus one per
        # acceptance -- not one per valid signature or echo, as it used to be.
        assert entries[process.pid] <= len(process.broadcast_rounds) + len(process.accepted_rounds)


# -- who is never pruned ------------------------------------------------------------------


def stale_signature(handles, signer):
    """A genuine round-1 signature: below every honest floor once round 1 is accepted."""
    return SignedRound(round=1, signature=sign(handles.keystore.secret_key(signer), RoundContent(1)))


def test_faulty_destination_keeps_stale_round_deliveries(monkeypatch):
    received = []
    original = ReplayAttacker.on_message

    def spy(self, sender, payload):
        received.append((self.pid, sender, payload))
        original(self, sender, payload)

    monkeypatch.setattr(ReplayAttacker, "on_message", spy)
    scenario = auth("replay")
    handles = build_cluster(scenario)  # full trace: the run is resumed below
    sim = handles.sim
    sim.run_until_round(2, t_max=scenario.horizon())
    assert all(process.current_round >= 2 for process in handles.honest)
    sender = handles.honest[0].pid
    payload = stale_signature(handles, sender)
    queued, pruned = len(sim.queue), sim.network.pruned
    envelopes = sim.network.broadcast(sender, payload)

    faulty_pids = [process.pid for process in handles.faulty]
    assert [env.dest for env in envelopes] == [pid for pid in sim.network.participants() if pid != sender]
    assert len(sim.queue) - queued == len(faulty_pids)
    assert sim.network.pruned - pruned == len(envelopes) - len(faulty_pids)
    del received[:]
    sim.run_until(sim.now + scenario.params.tdel)
    assert sorted(pid for pid, _, got in received if got is payload) == faulty_pids


def test_passive_joiner_is_never_pruned():
    scenario = auth("skew_max", joiner_count=1, join_time=2.5)
    handles = build_cluster(scenario)  # full trace: the run is resumed below
    sim = handles.sim
    joiner = handles.joiners[0]
    seen = []
    original = joiner.on_message
    joiner.on_message = lambda sender, payload: (seen.append(payload), original(sender, payload))
    sim.run_until(scenario.join_time)  # booted and listening, nothing accepted yet
    assert joiner.current_round is None
    assert all(process.current_round >= 2 for process in handles.honest)
    sender = handles.honest[0].pid
    payload = stale_signature(handles, sender)
    queued = len(sim.queue)
    sim.network.send(sender, handles.honest[1].pid, payload)
    assert len(sim.queue) == queued  # an honest peer past round 1: pruned
    sim.network.send(sender, joiner.pid, payload)
    assert len(sim.queue) == queued + 1  # the joiner published nothing: delivered
    sim.run_until(sim.now + scenario.params.tdel)
    assert any(got is payload for got in seen)
