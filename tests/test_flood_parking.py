"""Flood parking: forged echo inits wait until their round has state, exactly.

Under the echo algorithm with at most ``f`` flooders, the exact replay
pushes a forged ``forge_flood`` init only to destinations already holding
its round's echo state and parks it for the rest; creating the state
settles what was parked for the round -- arrivals before the current event
join the init senders, later ones are pushed under their own keys
(``_ExactReplay._park`` / ``_settle``, ``docs/kernel.md`` "What the replay
may skip").  Pinned here:

* a sweep over n, delay modes, clock modes and message sampling, every
  cell vector-served and equal to ``kernel="event"`` field for field, with
  both settle branches run;
* the two facts the rule's argument stands on: every flood round lies
  inside the tracker window, and the rule is off when the flooders
  outnumber ``f`` -- where, forced on, it would be wrong;
* the ``kernel.replay`` span's ``parked`` count.
"""

from __future__ import annotations

import dataclasses
import itertools

import pytest

from repro import obs
from repro.sim import vectorized
from repro.sim.adversary import FLOOD_MAX_ROUND, TRACKER_LOOKAHEAD
from repro.sim.kernel import numpy_or_none
from repro.sim.vectorized import _ExactReplay
from repro.workloads.scenarios import run_scenario

from test_kernel_parity import echo_cell

pytestmark = pytest.mark.skipif(numpy_or_none() is None, reason="numpy not installed")

#: ``(tdel, sample_messages)`` per run of a cell: the longer delay bound keeps
#: forged inits in flight when a round's state is created, so the settle's
#: push branch runs beside its fold.
RUNS = [(0.01, None), (0.1, 7)]


def flood_cell(n, delay="uniform", clock="extreme", tdel=0.01, sample=None, **kwargs):
    scenario = echo_cell(
        n, attack="forge_flood", delay=delay, clock=clock, rounds=4, sample=sample, **kwargs
    )
    return dataclasses.replace(scenario, params=dataclasses.replace(scenario.params, tdel=tdel))


def both_kernels(scenario):
    """``(event, vector)`` results, guarantees measured only; asserts the lane was vector-served."""
    event, vector = (
        run_scenario(
            dataclasses.replace(scenario, kernel=kernel),
            check_guarantees=False, trace_level="metrics",
        )
        for kernel in ("event", "auto")
    )
    assert vector.kernel_provenance.vector_lanes == 1, vector.kernel_provenance.fallback_reasons
    return event, vector


def differing_fields(event, vector) -> list:
    return [
        field.name for field in dataclasses.fields(event)
        if field.name not in ("kernel_provenance", "scenario")
        and getattr(event, field.name) != getattr(vector, field.name)
    ]


@pytest.fixture
def replays(monkeypatch):
    """Every ``_ExactReplay`` the vector kernel builds during the test."""
    made = []

    class Recorded(_ExactReplay):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(vectorized, "_ExactReplay", Recorded)
    return made


def test_parked_inits_change_nothing(replays):
    for n, delay, clock, (tdel, sample) in itertools.product(
        (4, 7, 10, 13, 16, 25), ("uniform", "targeted", "max", "min"), ("extreme", "random"), RUNS
    ):
        scenario = flood_cell(n, delay, clock, tdel, sample)
        event, vector = both_kernels(scenario)
        assert differing_fields(event, vector) == [], (n, delay, clock, tdel, sample)
    assert len(replays) == 96 and all(replay.parking for replay in replays)
    assert all(replay.parked > 0 for replay in replays)
    assert sum(replay.folded for replay in replays) > 0
    assert sum(replay.unparked for replay in replays) > 0


def test_flood_rounds_lie_inside_the_tracker_window():
    # A parked init is settled as if it had reached the tracker on arrival:
    # with the floor at most its round then, the window's upper edge must
    # never cut it off.
    assert 1 <= FLOOD_MAX_ROUND <= TRACKER_LOOKAHEAD


#: Echo sizes where ``n - (f + 1) >= 2f + 1``: with one flooder too many the
#: honest processes can still accept, so the runs complete on both kernels.
OVER_F_SIZES = (6, 8, 11)


@pytest.mark.parametrize("n", OVER_F_SIZES)
def test_parking_is_off_when_flooders_outnumber_f(n, replays):
    scenario = flood_cell(n, actual_faults=(n - 1) // 3 + 1)
    event, vector = both_kernels(scenario)
    assert differing_fields(event, vector) == []
    assert [replay.parking for replay in replays] == [False]
    assert replays[0].parked == 0


def test_parking_with_f_plus_one_flooders_would_be_wrong(monkeypatch):
    # f + 1 forged inits make an honest process echo a round on their own,
    # so none of them may wait for other traffic.  Forced on, the rule
    # misses those echoes on at least one of the over-f cells.
    class Forced(_ExactReplay):
        def __init__(self, *args):
            super().__init__(*args)
            self.parking = True

    monkeypatch.setattr(vectorized, "_ExactReplay", Forced)
    wrong = 0
    for n in OVER_F_SIZES:
        scenario = flood_cell(n, actual_faults=(n - 1) // 3 + 1)
        event, vector = (
            run_scenario(
                dataclasses.replace(scenario, kernel=kernel),
                check_guarantees=False, trace_level="metrics",
            )
            for kernel in ("event", "auto")
        )
        wrong += vector.kernel_provenance.vector_lanes == 1 and bool(differing_fields(event, vector))
    assert wrong > 0


def test_replay_span_reports_parked_inits(replays):
    obs.enable()
    try:
        both_kernels(flood_cell(7))
        both_kernels(echo_cell(7, attack="two_faced", delay="uniform", rounds=4))
        spans = [span for span in obs.tracer().all_spans() if span.name == "kernel.replay"]
    finally:
        obs.disable()
    assert [span.attrs["parked"] for span in spans] == [replay.parked for replay in replays]
    flood, plain = replays
    assert flood.parked > 0 and plain.parked == 0
    assert spans[0].attrs["pruned"] == flood.pruned
    assert spans[0].attrs["events"] == flood.events > 0
