"""The block fold against the per-acceptance recorder feed.

``repro.sim.fold.fold_lanes`` finalizes a block of served vector
lanes in one array fold instead of replaying each acceptance into an
``OnlineMetricsRecorder`` (``_finalize_lane``).  Here every summary field of
the fold must equal the recorder feed's ``repr`` for ``repr`` -- result
digests hash ``repr``, so an ``np.float64`` or a ``-0.0`` is a difference --
on lanes of both engines (lanes of a small fixed-rate lockstep block, which
``run_lanes`` feeds to the recorder, are folded here too), with drifting
clocks, message sampling, acceptances at ``t = 0``, skipped rounds and a
process accepting several rounds at one instant among them, and on
arbitrary lanes within the engines' contract (a Hypothesis property).
Which blocks ``run_lanes`` folds, and what an error on either path
refuses, is pinned here as well; so is the sixth replay skip rule (a
relayed proof shadowed by an earlier in-window one) against the event loop.
"""

from __future__ import annotations

import dataclasses
import itertools
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import obs
from repro.sim import fold as fold_module, vectorized
from repro.sim.clocks import PiecewiseLinearClock
from repro.sim.fold import fold_lanes
from repro.sim.kernel import numpy_or_none
from repro.sim.vectorized import (
    _ExactReplay,
    _finalize_lane,
    _LaneRecord,
    _Layout,
    run_lanes,
)
from repro.workloads.scenarios import _run_on_event_loop

from test_kernel_parity import assert_results_identical, cell, measure_both, run_both
from test_vector_kernel_lean import lanes

pytestmark = pytest.mark.skipif(numpy_or_none() is None, reason="numpy not installed")

SEEDS = (1, 2, 3)


@pytest.fixture
def blocks(monkeypatch):
    """``[(path, layout, records)]`` of every block ``run_lanes`` finalizes during the test.

    A folded block is one ``"fold"`` entry; a block fed to the recorder is
    one ``"feed"`` entry per lane.
    """
    seen = []
    fold = fold_module.fold_lanes
    feed = vectorized._finalize_lane

    def folded_block(layout, records):
        seen.append(("fold", layout, list(records)))
        return fold(layout, records)

    def fed_lane(layout, record):
        seen.append(("feed", layout, [record]))
        return feed(layout, record)

    monkeypatch.setattr(fold_module, "fold_lanes", folded_block)
    monkeypatch.setattr(vectorized, "_finalize_lane", fed_lane)
    return seen


def serve(scenario):
    """The scenario's lanes at ``SEEDS``, as one block; every lane must be served."""
    outcomes = run_lanes([dataclasses.replace(scenario, seed=seed) for seed in SEEDS])
    assert [o.fallback for o in outcomes] == [None] * len(SEEDS), scenario.name


def assert_fold_is_the_recorder_feed(blocks) -> int:
    """Fold every seen block and feed each lane to a recorder; compare ``repr``s."""
    lanes = 0
    for path, layout, records in blocks:
        for record, folded in zip(records, fold_lanes(layout, records)):
            fed = _finalize_lane(layout, record).summary
            for field in dataclasses.fields(fed):
                assert repr(getattr(folded, field.name)) == repr(getattr(fed, field.name)), (
                    path, field.name,
                )
            lanes += 1
    return lanes


def emissions_of(blocks):
    return [record.emissions for _, _, records in blocks for record in records]


# -- the fold is the recorder feed ----------------------------------------------------------


REPLAY_FAMILIES = [
    dict(algorithm=algorithm, attack=attack, delay=delay)
    for algorithm, attack, delay in itertools.product(
        ("auth", "echo"),
        (None, "two_faced", "random_two_faced", "random_silence", "forge_flood", "eager", "crash"),
        ("uniform", "min"),
    )
] + [
    dict(algorithm="echo", attack=attack, delay="targeted") for attack in ("skew_max", "forge_flood")
]


@pytest.mark.parametrize("clock", ["extreme", "random"])
@pytest.mark.parametrize("family", REPLAY_FAMILIES, ids=lambda f: "-".join(map(str, f.values())))
def test_replay_blocks_fold_to_the_recorder_feed(blocks, family, clock):
    for n, sample in ((7, None), (10, 3)):
        serve(cell(n, clock=clock, sample=sample, rounds=5, **family))
    assert {path for path, _, _ in blocks} == {"fold"}
    assert not any(layout.lockstep for _, layout, _ in blocks)
    assert all(len(records) == len(SEEDS) for _, _, records in blocks)
    assert assert_fold_is_the_recorder_feed(blocks) == 2 * len(SEEDS)


@pytest.mark.parametrize("clock", ["extreme", "random", "nominal"])
@pytest.mark.parametrize("attack", [None, "skew_max", "eager", "crash"])
def test_lockstep_lanes_fold_to_the_recorder_feed(blocks, attack, clock):
    # Three lanes: a fixed-rate block this small is fed to the recorder and a
    # drifting one is folded; either way each lane is folded here as well.
    for delay, sample in (("targeted", None), ("max", 4)):
        serve(cell(7, attack=attack, clock=clock, delay=delay, sample=sample, rounds=5))
    assert all(layout.lockstep for _, layout, _ in blocks)
    assert assert_fold_is_the_recorder_feed(blocks) == 2 * len(SEEDS)


@pytest.mark.parametrize("algorithm", ["auth", "echo"])
@pytest.mark.parametrize("clock", ["extreme", "random"])
def test_acceptances_at_time_zero(blocks, algorithm, clock):
    # An initial spread of at least a period puts some clock past the first
    # timer's reading at boot: its round-1 timer fires at t = 0, and with
    # zero minimum delays the first acceptances land there too.
    scenario = cell(4, algorithm=algorithm, clock=clock, delay="min", attack=None, spread=1.5, rounds=4)
    serve(scenario)
    assert any(e[0] == 0.0 for emissions in emissions_of(blocks) for e in emissions)
    assert assert_fold_is_the_recorder_feed(blocks) == len(SEEDS)
    event, vector = measure_both(scenario)  # spread outside the bounds' range: measure only
    assert_results_identical(event, vector, scenario.name)


@pytest.mark.parametrize("algorithm", ["auth", "echo"])
@pytest.mark.parametrize("clock", ["extreme", "random"])
def test_a_process_accepting_twice_at_one_instant(blocks, algorithm, clock):
    # With the period below alpha, an acceptance sets the logical clock past
    # the next round's timer reading, so that timer fires on the same instant
    # and, with zero minimum delays, the run cascades through its rounds
    # there: each process accepts several rounds at one instant, and only
    # its last emission is the adjustment in force afterwards.
    base = cell(4, algorithm=algorithm, clock=clock, delay="min", attack=None, rounds=12)
    scenario = dataclasses.replace(base, params=dataclasses.replace(base.params, period=0.008), name="")
    assert scenario.params.period < scenario.params.alpha_value
    serve(scenario)
    twice = [
        emissions for emissions in emissions_of(blocks)
        if len({(time, pid) for time, pid, *_ in emissions}) < len(emissions)
    ]
    assert twice, "no process accepted twice at one instant: scenario lost its point"
    assert assert_fold_is_the_recorder_feed(blocks) == len(SEEDS)
    event, vector = measure_both(scenario)  # period outside the bounds' range: measure only
    assert_results_identical(event, vector, scenario.name)


@pytest.mark.parametrize("algorithm", ["auth", "echo"])
def test_skipped_rounds(blocks, algorithm):
    # With the period below tdel, a relayed proof (or the 2f+1-th echo) of a
    # later round can land first: its process accepts it at once and never
    # accepts the rounds in between, which opens a first gap in its triple
    # and leaves those rounds out of the acceptance spread.
    base = cell(4, algorithm=algorithm, delay="uniform", attack=None, rounds=12)
    scenario = dataclasses.replace(base, params=dataclasses.replace(base.params, period=0.004), name="")
    serve(scenario)
    assert any(
        later > earlier + 1
        for emissions in emissions_of(blocks)
        for pid in range(4)
        for earlier, later in itertools.pairwise([r for _, p, r, *_ in emissions if p == pid])
    ), "no process skipped a round: scenario lost its point"
    assert assert_fold_is_the_recorder_feed(blocks) == len(SEEDS)


def test_a_block_folds_as_its_lanes_alone(blocks):
    serve(cell(10, algorithm="echo", attack="two_faced", delay="uniform", clock="random", rounds=5))
    ((_, layout, records),) = blocks
    together = fold_lanes(layout, records)
    alone = [summary for record in records for summary in fold_lanes(layout, [record])]
    assert repr(together) == repr(alone)


def test_the_fold_returns_python_values_only(blocks):
    serve(cell(10, algorithm="auth", attack="random_two_faced", delay="uniform", clock="random", sample=5))
    ((_, layout, records),) = blocks

    def leaves(value):
        if isinstance(value, (tuple, list)):
            for item in value:
                yield from leaves(item)
        elif isinstance(value, dict):
            for item in value.items():
                yield from leaves(item)
        else:
            yield value

    for summary in fold_lanes(layout, records):
        for field in dataclasses.fields(summary):
            for leaf in leaves(getattr(summary, field.name)):
                assert leaf is None or type(leaf).__module__ == "builtins", (field.name, type(leaf))


# -- which blocks fold ----------------------------------------------------------------------


#: ``(clock, lanes, folds)``: fixed-rate lockstep blocks fold from
#: ``_FOLD_MIN_LANES`` lanes on, drifting ones at any size.
ROUTES = [("extreme", 1, False), ("extreme", 2, False), ("extreme", 4, True), ("random", 1, True)]


@pytest.mark.parametrize("clock, count, folds", ROUTES)
@pytest.mark.parametrize("family", [dict(n=7), dict(n=9, attack="two_faced", delay="max", sample=3)])
def test_small_fixed_rate_lockstep_blocks_are_fed_and_the_rest_fold(blocks, family, clock, count, folds):
    assert vectorized._FOLD_MIN_LANES == 4
    block = lanes(dict(family, clock=clock), count)
    outcomes = run_lanes(block)
    routes = [(path, len(records)) for path, _, records in blocks]
    assert routes == ([("fold", count)] if folds else [("feed", 1)] * count)
    for lane, outcome in zip(block, outcomes):
        assert outcome.fallback is None, outcome.fallback
        event, _, _ = _run_on_event_loop(dataclasses.replace(lane, kernel="event"), "metrics")
        for field in dataclasses.fields(event):
            assert repr(getattr(outcome.summary, field.name)) == repr(getattr(event, field.name)), (
                lane.seed, field.name,
            )


def test_an_error_in_the_fold_refuses_its_whole_block(monkeypatch):
    def broken(layout, records):
        raise UnboundLocalError("planted by the test")

    monkeypatch.setattr(fold_module, "fold_lanes", broken)
    outcomes = run_lanes(lanes(dict(n=7), 4))
    assert [o.summary for o in outcomes] == [None] * 4
    assert {o.fallback for o in outcomes} == {"vector evaluation error: UnboundLocalError('planted by the test')"}


def test_an_error_in_one_lanes_feed_refuses_that_lane_only(monkeypatch):
    feed = vectorized._finalize_lane
    calls = itertools.count()

    def broken_second(layout, record):
        if next(calls) == 1:
            raise UnboundLocalError("planted by the test")
        return feed(layout, record)

    monkeypatch.setattr(vectorized, "_finalize_lane", broken_second)
    block = lanes(dict(n=7), 2)
    first, second = run_lanes(block)
    assert second.summary is None and second.fallback.startswith("vector evaluation error: UnboundLocalError")
    monkeypatch.undo()
    assert first.fallback is None and first == run_lanes(block[:1])[0]


# -- any lane an engine could hand over ------------------------------------------------------


#: Floats with ties, zeros and both signs, so extremes collide.
VALUES = st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5, 2.0, -0.5, 1e-9, 3.0000001])


@st.composite
def synthetic_lanes(draw):
    """A block of lanes in the engines' contract, nothing else.

    Times never decrease and each pid's rounds strictly increase (a pid may
    accept several rounds at one instant, skip rounds, or never accept);
    adjustments, readings and clocks are arbitrary.
    """
    h = draw(st.integers(min_value=1, max_value=4))
    drifting = draw(st.booleans())
    starts = [0.0, 0.75, 1.5, 2.0000001]
    records = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        emissions, rounds, time = [], [0] * h, draw(st.sampled_from([0.0, 0.5]))
        for _ in range(draw(st.integers(min_value=1, max_value=6))):
            for pid in draw(st.lists(st.integers(0, h - 1), min_size=1, max_size=2 * h)):
                rounds[pid] += draw(st.integers(min_value=1, max_value=2))
                emissions.append((time, pid, rounds[pid], draw(VALUES), draw(VALUES), draw(VALUES)))
            time += draw(st.sampled_from([0.25, 0.5, 0.75, 1.0]))
        end = emissions[-1][0] + draw(st.sampled_from([0.0, 0.0, 0.5]))
        offsets = [draw(VALUES) for _ in range(h)]
        clocks = None
        if drifting:
            clocks = [
                PiecewiseLinearClock(
                    zip(starts, draw(st.lists(st.sampled_from([0.5, 1.0, 1.25]), min_size=4, max_size=4))),
                    offset=offset,
                )
                for offset in offsets
            ]
        records.append(_LaneRecord(emissions, offsets, end, clocks, None, 0, {}, None))
    rates = [draw(st.sampled_from([0.5, 1.0, 1.25])) for _ in range(h)]
    return h, rates, records


@given(synthetic_lanes())
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_property_any_lane_folds_to_the_recorder_feed(lanes):
    h, rates, records = lanes
    layout = SimpleNamespace(
        np=numpy_or_none(), h=h, honest_pids=list(range(h)), honest_rates=rates,
        params=SimpleNamespace(min_rate=0.9, max_rate=1.1),
    )
    assert assert_fold_is_the_recorder_feed([("synthetic", layout, records)]) == len(records)


# -- the sixth skip rule: the first in-window bundle shadows later ones ----------------------


@pytest.mark.parametrize("n, attack", [(7, None), (9, "two_faced"), (14, "random_two_faced")])
def test_shadowed_bundles_change_nothing(n, attack):
    scenario = cell(n, attack=attack, delay="uniform", rounds=6)
    replay = _ExactReplay(_Layout(scenario, numpy_or_none()), scenario)
    replay.run()  # raises LaneFallback if the lane leaves the replay's regime
    assert replay.shadowed > 0, "no bundle was shadowed: scenario lost its point"
    obs.enable()
    try:
        event, vector = run_both(scenario)
        spans = [s for s in obs.tracer().all_spans() if s.name == "kernel.replay"]
    finally:
        obs.disable()
    assert_results_identical(event, vector, scenario.name)
    assert [span.attrs["shadowed"] for span in spans] == [replay.shadowed]


def test_echo_replays_shadow_nothing():
    scenario = cell(10, algorithm="echo", attack="two_faced", delay="uniform", rounds=5)
    replay = _ExactReplay(_Layout(scenario, numpy_or_none()), scenario)
    replay.run()
    assert replay.shadowed == 0
