"""A broadcast's same-instant deliveries share one heap entry, and that changes nothing observed.

``Network._emit`` collects the deliveries of one call whose clamped delay
lands them at the same instant and pushes them as one run
(``EventQueue.push_run``).  Every cell below runs twice -- normally, and with
``push_run`` monkeypatched to push each pair as its own single entry, in
order (one push per message, the queue's order before runs existed) -- and
must produce the same trace or summary, the same ``NetworkStats``, the same
message samples, the same number of fired events and the same stop time.
"""

from __future__ import annotations

import dataclasses
from typing import NamedTuple

import pytest

from repro.analysis.serialize import trace_to_dict
from repro.experiments.common import adversarial_scenario, default_params
from repro.sim.events import EventQueue
from repro.sim.network import FunctionDelay
from repro.workloads.scenarios import Scenario, build_cluster


def auth(attack="skew_max", n=7, rounds=5, **kwargs):
    params = default_params(n, authenticated=True)
    return adversarial_scenario(params, "auth", attack=attack, rounds=rounds, seed=41, **kwargs)


def echo(delay_mode, n=7, rounds=4, **kwargs):
    return Scenario(
        params=default_params(n, authenticated=False), algorithm="echo", attack="two_faced",
        rounds=rounds, clock_mode="extreme", delay_mode=delay_mode, seed=43, **kwargs,
    )


def three_delays(sender, dest, payload, time, rng):
    """Clamped to tmin, to tdel, or a fixed value in between, by destination and sender."""
    return (0.0, float("inf"), 0.004)[(sender + dest) % 3]


#: ``id -> (scenario, honest crash time or None, delay policy swapped in or None)``.
CELLS = {
    "auth-targeted": (auth(), None, None),
    "auth-max": (dataclasses.replace(auth("eager"), delay_mode="max"), None, None),
    "echo-min": (echo("min"), None, None),
    "echo-fixed": (echo("midpoint"), None, None),
    "echo-targeted": (echo("targeted"), None, None),
    "auth-function": (auth("two_faced"), None, FunctionDelay(three_delays)),
    "auth-rushing_cabal": (auth("rushing_cabal"), None, None),
    "auth-replay": (auth("replay"), None, None),
    "auth-startup-joiner": (auth(use_startup=True, boot_spread=0.05, joiner_count=1, join_time=2.5), None, None),
    "echo-startup-joiner": (
        echo("targeted", use_startup=True, boot_spread=0.05, joiner_count=1, join_time=2.5), None, None,
    ),
    "auth-monotonic": (auth(monotonic=True), None, None),
    "auth-honest-crash": (auth(rounds=8), 1.5, None),
    "auth-grace": (auth(grace=0.3), None, None),
    "auth-abort-unreachable": (auth(rounds=8, abort_unreachable=True), 1.5, None),
}

#: ``(trace level, sample_messages)``.
LEVELS = {
    "full": ("full", None), "full-sampled": ("full", 3), "metrics": ("metrics", None), "metrics-sampled": ("metrics", 3),
}


class Run(NamedTuple):
    """Everything one run lets an observer see, plus the engine's event count."""

    observation: object  # the full trace as a dict, or the OnlineMetricsSummary
    stats: dict
    samples: object
    stop_time: float
    stopped_early: bool
    events: int


def observe(sim, observed, trace_level) -> Run:
    if trace_level == "full":
        observation, samples = trace_to_dict(observed), None
    else:
        observation, samples = observed, observed.message_samples
    return Run(
        observation, dataclasses.asdict(sim.network.stats), samples, sim.now, sim.stopped_early, sim.events_fired
    )


def run_cell(scenario, level, crash_at, policy) -> Run:
    trace_level, sample = LEVELS[level]
    handles = build_cluster(scenario, trace_level=trace_level, sample_messages=sample)
    sim = handles.sim
    if policy is not None:
        sim.network.policy = policy
    if crash_at is not None:
        sim.schedule_at(crash_at, handles.honest[0].halt)
    observed = sim.run_until_round(
        scenario.rounds, t_max=scenario.horizon(), grace=scenario.grace,
        abort_unreachable=scenario.abort_unreachable,
    )
    return observe(sim, observed, trace_level)


def one_push_per_pair(queue, time, pairs):
    for action, arg in pairs:
        queue.push(time, action, arg)


@pytest.fixture
def run_sizes(monkeypatch):
    """The pair count of every ``push_run`` call, in call order."""
    sizes = []
    push_run = EventQueue.push_run

    def counted(queue, time, pairs):
        sizes.append(len(pairs))
        push_run(queue, time, pairs)

    monkeypatch.setattr(EventQueue, "push_run", counted)
    return sizes


@pytest.mark.parametrize("level", list(LEVELS))
@pytest.mark.parametrize("cell_id", list(CELLS))
def test_runs_change_nothing_observed(cell_id, level, run_sizes, monkeypatch):
    scenario, crash_at, policy = CELLS[cell_id]
    grouped = run_cell(scenario, level, crash_at, policy)
    assert max(run_sizes) > 1, "no delivery shared a run: the cell does not exercise runs"
    monkeypatch.setattr(EventQueue, "push_run", one_push_per_pair)
    single = run_cell(scenario, level, crash_at, policy)

    assert grouped.observation == single.observation, "trace / summary differs"
    assert grouped.stats == single.stats, "NetworkStats differ"
    assert grouped.samples == single.samples, "message samples differ"
    assert grouped.stop_time == single.stop_time, "stop time differs"
    assert grouped.stopped_early == single.stopped_early
    assert grouped.events == single.events, "fired events differ"
    if LEVELS[level] == ("metrics", 3):
        assert len(grouped.samples) == -(-grouped.stats["total_messages"] // 3)


def two_segments(scenario):
    """Stop at round 2 with ``grace=0``, then resume to the horizon."""
    sim = build_cluster(scenario, trace_level="full").sim
    sim.run_until_round(2, t_max=scenario.horizon())
    head = sim.queue._heap[0]
    first = (sim.now, sim.stopped_early, sim.events_fired, len(sim.queue))
    trace = sim.run_until(scenario.horizon())
    return head, first, observe(sim, trace, "full")


def test_a_stop_inside_a_run_resumes_exactly(monkeypatch):
    # grace=0 halts on the completing delivery itself; under targeted delays
    # that delivery is one pair of a run whose later pairs are still queued.
    popped = []
    pop_until = EventQueue.pop_until

    def spy(queue, limit):
        event = pop_until(queue, limit)
        popped.append(event)
        return event

    monkeypatch.setattr(EventQueue, "pop_until", spy)
    scenario = auth(n=10)
    head, grouped_first, grouped = two_segments(scenario)
    completing = popped[grouped_first[2] - 1]
    monkeypatch.setattr(EventQueue, "push_run", one_push_per_pair)
    _, single_first, single = two_segments(scenario)

    # The completing event was a pair of the run still at the heap top.
    assert head[2] is None and head[:2] == completing[:2]
    assert grouped_first == single_first and grouped_first[1]
    assert grouped == single
