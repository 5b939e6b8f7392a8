"""The lean vector kernel's shortcuts, pinned against their slow definitions.

Three things ``repro.sim.vectorized`` does *instead of* the obvious
per-message work, each checked against the obvious version:

* the exact-replay engine never pushes a delivery whose round is already
  below the destination's tracker floor, and enters ``try_accept`` only when
  the touched round has just reached its threshold -- a Hypothesis sweep over
  every replay-served attack demands the event loop's summary, float for
  float, with no fallback;
* a deterministic run where the prune demonstrably fires (slow honest clocks
  announce a round their fast peers already left) reports it on the
  ``kernel.replay`` span and still matches the event loop;
* the lockstep walk's per-sender delay-class table returns exactly the
  per-destination scan's arrival list, which lives here as the oracle.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import obs
from repro.sim.kernel import numpy_or_none
from repro.sim.vectorized import (
    _Batch,
    _ExactReplay,
    _Layout,
    _arrivals,
    _delay_classes,
)

from test_kernel_parity import assert_results_identical, cell, run_both

pytestmark = pytest.mark.skipif(numpy_or_none() is None, reason="numpy not installed")

REPLAY_ATTACKS = [
    "two_faced", "random_two_faced", "random_silence", "random_laggard",
    "forge_flood", "eager", "crash",
]

SIMULATING = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


# -- exact replay: emit-time prune and touched-round try_accept -------------------------


@given(
    algorithm=st.sampled_from(["auth", "echo"]),
    attack=st.sampled_from(REPLAY_ATTACKS),
    delay=st.sampled_from(["uniform", "min"]),
    n=st.integers(min_value=4, max_value=16),
    f_share=st.floats(min_value=0.0, max_value=1.0),
    rounds=st.integers(min_value=2, max_value=5),
    seed=st.integers(min_value=0, max_value=10_000),
)
@SIMULATING
def test_property_replay_matches_event_loop(algorithm, attack, delay, n, f_share, rounds, seed):
    bound = (n - 1) // 3 if algorithm == "echo" else (n - 1) // 2
    f = 1 + round(f_share * (bound - 1))
    scenario = cell(
        n, f=f, algorithm=algorithm, attack=attack, delay=delay, rounds=rounds, seed=seed
    )
    event, vector = run_both(scenario)  # asserts the lane did not fall back
    assert_results_identical(event, vector, scenario.name)


def test_emit_time_prune_fires_and_changes_nothing():
    # Eager signers hand every honest process f signatures early, so a fast
    # clock accepts round k on its own timer; a slow clock's timer fires a
    # moment later, before the relayed bundle lands, and announces round k to
    # peers whose floor is already k + 1.
    scenario = cell(7, attack="eager", delay="uniform", rounds=4, spread=0.0, seed=0)
    replay = _ExactReplay(_Layout(scenario, numpy_or_none()), scenario, False, None)
    assert replay.run().fallback is None
    accepted = {}
    for time, pid, round_, *_ in replay.emissions:
        accepted.setdefault(round_, []).append((time, pid))
    late = [
        b for b in replay.batches
        if b.kind == "SignedRound" and b.sender < replay.h and any(
            time < b.time and pid != b.sender for time, pid in accepted[b.round]
        )
    ]
    assert late, "no honest announce after a peer's acceptance: scenario lost its point"
    assert replay.pruned >= len(late)

    obs.enable()
    try:
        event, vector = run_both(scenario)
        spans = [s for s in obs.tracer().all_spans() if s.name == "kernel.replay"]
    finally:
        obs.disable()
    assert_results_identical(event, vector, scenario.name)
    assert spans
    for span in spans:
        assert span.attrs["pruned"] == replay.pruned
        assert span.attrs["events"] == replay.events > 0


# -- lockstep walk: the delay-class table -----------------------------------------------


def scan_arrivals(batch, tau, actor_col):
    """The per-destination scan ``_walk`` used to run, kept as the oracle."""
    return [
        (batch, d) for p, d in enumerate(batch.dests)
        if batch.time + batch.delays[p] == tau and d in actor_col
    ]


def assert_partition(classes, dests, delays, actor_col):
    """Every actor destination in exactly one class, each class in send order."""
    seen = []
    for delay, pairs in classes:
        assert list(pairs) == sorted(pairs)
        assert all(delays[p] == delay and dests[p] == d for p, d in pairs)
        seen.extend(pairs)
    assert sorted(seen) == [(p, d) for p, d in enumerate(dests) if d in actor_col]
    assert len({delay for delay, _ in classes}) == len(classes)


@pytest.mark.parametrize("delay", ["targeted", "max", "min", "midpoint"])
@pytest.mark.parametrize("attack", ["skew_max", "laggard", "two_faced", "crash"])
@given(
    n=st.integers(min_value=4, max_value=12),
    time=st.sampled_from([0.0, 0.75, 1.0, 2.0000001, 3.0]),
    offset=st.sampled_from([0.0, 0.005, 0.01, 0.0100001, 1.0]),
)
@settings(max_examples=15, deadline=None)
def test_delay_classes_match_scan_on_layouts(delay, attack, n, time, offset):
    layout = _Layout(cell(n, attack=attack, delay=delay), numpy_or_none())
    tau = time + offset
    for pid, dests in layout.dests.items():
        delays = layout.delays[pid]
        classes = _delay_classes(dests, delays, layout.actor_col)
        if layout.lockstep:
            assert classes == layout.delay_classes[pid]
        assert_partition(classes, dests, delays, layout.actor_col)
        batch = _Batch(time, pid, "SignedRound", 1, dests, delays, 0)
        hits = scan_arrivals(batch, tau, layout.actor_col)
        assert _arrivals(classes, batch, tau) == hits
        if hits:  # the walk only looks at batches sent within tdel of tau
            assert tau <= time + layout.tdel


@given(
    delays=st.lists(
        st.sampled_from([0.0, 1e-17, 2e-17, 0.005, 0.01, 3.0, 4.0]), min_size=1, max_size=12
    ),
    actors=st.sets(st.integers(min_value=0, max_value=11)),
    time=st.sampled_from([0.0, 1.0, 2.5, float(2**53)]),
    offset=st.sampled_from([0.0, 1e-17, 0.005, 0.01, 3.0, 4.0]),
)
def test_delay_classes_match_scan_on_arbitrary_delays(delays, actors, time, offset):
    dests = tuple(range(len(delays)))
    actor_col = {d: i for i, d in enumerate(sorted(actors))}
    classes = _delay_classes(dests, delays, actor_col)
    assert_partition(classes, dests, delays, actor_col)
    batch = _Batch(time, 99, "SignedRound", 1, dests, tuple(delays), 0)
    tau = time + offset
    assert _arrivals(classes, batch, tau) == scan_arrivals(batch, tau, actor_col)


def test_two_delay_classes_landing_on_one_instant_merge_by_position():
    # 2**53 + 3.0 rounds to 2**53 + 4.0: two distinct delay values, one tau.
    time = float(2**53)
    tau = time + 4.0
    dests = (0, 1, 2, 3, 4)
    delays = (3.0, 4.0, 0.5, 4.0, 3.0)
    actor_col = {0: 0, 1: 1, 2: 2, 4: 3}
    classes = _delay_classes(dests, delays, actor_col)
    assert len(classes) == 3
    batch = _Batch(time, 9, "SignedRound", 1, dests, delays, 0)
    assert time + 3.0 == tau
    assert [d for _, d in _arrivals(classes, batch, tau)] == [0, 1, 4]
    assert _arrivals(classes, batch, tau) == scan_arrivals(batch, tau, actor_col)
