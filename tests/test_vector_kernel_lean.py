"""The lean vector kernel's shortcuts, pinned against their slow definitions.

Things ``repro.sim.vectorized`` does *instead of* the obvious per-message
(or per-lane, per-instant, per-call) work, each checked against the obvious
version:

* the exact-replay engine never pushes a delivery whose round is already
  below the destination's tracker floor, and enters ``try_accept`` only when
  the touched round has just reached its threshold -- a Hypothesis sweep over
  every replay-served attack demands the event loop's summary, float for
  float, with no fallback;
* a deterministic run where the prune demonstrably fires (slow honest clocks
  announce a round their fast peers already left) reports it on the
  ``kernel.replay`` span and still matches the event loop;
* ``_finalize_lane`` sorts nothing: the replay's batch list is in send order
  as made, on every family it serves, and the lockstep caller -- whose eager
  batches are created up front -- sorts its own;
* the lockstep walk's per-sender delay-class table returns exactly the
  per-destination scan's arrival list, which lives here as the oracle;
* the lockstep fixpoint's one-sort order statistics equal the two-sort
  reference, a block of lanes equals its lanes run one at a time (a
  falling-back lane and drifting clocks included), the per-round instant
  index equals the per-instant scans, and the kept layout is keyed on
  every field a layout reads.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import obs
from repro.core.params import SyncParams
from repro.sim import vectorized
from repro.sim.kernel import numpy_or_none
from repro.sim.vectorized import (
    _Batch,
    _ExactReplay,
    _Layout,
    _arrivals,
    _delay_classes,
    _instants,
    _lane_offsets_list,
    _layout_for,
    _layout_key,
    _order_statistics,
    _phase1,
    run_lanes,
)
from repro.workloads.scenarios import Scenario

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
    replay = _ExactReplay(_Layout(scenario, numpy_or_none()), scenario)
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


# -- ordered finalize: batches arrive in send order -------------------------------------


def in_send_order(batches):
    keys = [(b.time, b.seq) for b in batches]
    return keys == sorted(keys)


def test_replay_batches_are_made_in_send_order_and_eager_lockstep_ones_are_not(monkeypatch):
    """``_finalize_lane`` numbers messages by position and sorts nothing.

    The replay appends a batch when the event it mirrors fires, so its list
    is in ``(time, seq)`` order as made, on every family it serves.  The
    lockstep assembly creates the eager signers' batches up front, ahead of
    their send instants: creation order is not send order there, which is
    why that caller sorts before the call.
    """
    handed = []
    finalize = vectorized._finalize_lane

    def spy(layout, lane_offsets, batches, *args, **kwargs):
        handed.append(list(batches))
        return finalize(layout, lane_offsets, batches, *args, **kwargs)

    monkeypatch.setattr(vectorized, "_finalize_lane", spy)

    def finalized_batches(scenario):
        assert run_lanes([scenario])[0].fallback is None
        return handed.pop()

    replay_cells = [
        cell(9, algorithm=algorithm, attack=attack, delay=delay, rounds=4)
        for algorithm in ("auth", "echo")
        for attack in [None, "skew_max", "laggard", *REPLAY_ATTACKS]
        for delay in ("uniform", "min")
    ] + [
        cell(9, algorithm="echo", attack=attack, delay=delay, clock=clock, rounds=4)
        for attack in ("skew_max", "eager", "forge_flood")
        for delay, clock in (("targeted", "extreme"), ("max", "random"))
    ] + [cell(9, attack="forge_flood", rounds=4), cell(9, attack="random_silence", rounds=4)]
    for scenario in replay_cells:
        assert not _Layout(scenario, numpy_or_none()).lockstep, scenario.name
        batches = finalized_batches(scenario)
        assert [b.seq for b in batches] == list(range(len(batches))), scenario.name
        assert in_send_order(batches), scenario.name

    batches = finalized_batches(cell(9, attack="eager", delay="max", rounds=4))
    assert in_send_order(batches)  # the contract, kept by the caller's sort ...
    assert [b.seq for b in batches] != list(range(len(batches)))  # ... which it needed


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


# -- lockstep fixpoint: one sort for both order statistics -------------------------------

TIMES = [0.0, 0.5, 1.0, 1.0000000000000002, 1.01, 2.0, 3.5]


def two_sort_reference(np, arr, T, ann, f):
    """``_solve_round``'s former recipe: sort, write the diagonal, sort again."""
    idx = np.arange(arr.shape[1])
    X_wo = np.sort(arr, axis=0)[f]
    arr_own = arr.copy()
    arr_own[idx, idx] = np.where(ann, T, np.inf)
    X_with = np.sort(arr_own, axis=0)[f]
    return X_wo, np.where(ann, X_with, X_wo)


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_one_sort_order_statistics_equal_two_sort_reference(data):
    np = numpy_or_none()
    S = data.draw(st.integers(min_value=2, max_value=8), label="S")
    A = data.draw(st.integers(min_value=1, max_value=S), label="A")
    L = data.draw(st.integers(min_value=1, max_value=3), label="L")
    f = data.draw(st.integers(min_value=0, max_value=S - 2), label="f")
    entry = st.sampled_from(TIMES + [float("inf")] * 3)  # exact ties, many infs
    arr = np.array(
        data.draw(st.lists(entry, min_size=L * S * A, max_size=L * S * A))
    ).reshape(L, S, A)
    arr[:, np.arange(A), np.arange(A)] = np.inf  # no sender is its own destination
    T = np.array(
        data.draw(st.lists(st.sampled_from(TIMES), min_size=L * A, max_size=L * A))
    ).reshape(L, A)
    ann = np.array(
        data.draw(st.lists(st.booleans(), min_size=L * A, max_size=L * A))
    ).reshape(L, A)
    X_wo, X = _order_statistics(np, arr, T, ann, f)
    for lane in range(L):
        ref_wo, ref = two_sort_reference(np, arr[lane], T[lane], ann[lane], f)
        assert np.array_equal(X_wo[lane], ref_wo)
        assert np.array_equal(X[lane], ref)


# -- lockstep fixpoint: a block of lanes equals its lanes alone --------------------------

#: The lockstep families of ``test_kernel_parity`` (auth, deterministic
#: attack and delays), as ``cell`` keyword arguments.
LOCKSTEP_FAMILIES = [
    dict(n=7),
    dict(n=14),
    *[dict(n=7, attack=attack) for attack in (None, "silent", "crash", "eager", "two_faced", "laggard")],
    *[dict(n=9, attack="eager", delay=delay) for delay in ("max", "midpoint")],
    dict(n=7, clock="nominal"),
    dict(n=7, attack="crash", clock="nominal", delay="max", spread=0.0),  # tie-heavy
    dict(n=7, clock="nominal", spread=0.0),
    *[dict(n=9, attack="two_faced", clock="random", delay=delay) for delay in ("max", "targeted")],
]


def lanes(family, count, **params):
    """``count`` lanes of one family: same layout key, seeds and offset spreads differ."""
    block = []
    for index in range(count):
        lane = cell(**{"rounds": 6, "seed": 300 + 17 * index, **family})
        if lane.params.initial_offset_spread and lane.clock_mode != "random":
            # Drifting lanes share one breakpoint grid, so one horizon, so one spread.
            params = dict(params, initial_offset_spread=0.002 * (1 + index % 5))
        block.append(
            dataclasses.replace(lane, params=dataclasses.replace(lane.params, **params), name="")
        )
    assert len({_layout_key(lane) for lane in block}) == 1
    return block


@pytest.mark.parametrize("count", [2, 4, 16])
def test_block_of_lanes_equals_each_lane_alone(count):
    for family in LOCKSTEP_FAMILIES:
        block = lanes(family, count)
        assert _Layout(block[0], numpy_or_none()).lockstep
        together = run_lanes(block)
        for lane, outcome in zip(block, together):
            assert outcome.fallback is None, (family, outcome.fallback)
            assert outcome == run_lanes([lane])[0], (family, lane.seed)


@pytest.mark.parametrize("clock", ["extreme", "random"])
def test_block_with_falling_back_lanes_serves_the_others(clock):
    # At period 0.015 (tdel 0.01) the first round-2 timer of some seeds fires
    # before the laggard's round-1 acceptance: those lanes leave the proven
    # regime at round 2 of 8 and ride along, masked, for six more rounds.
    block = lanes(dict(n=7, attack="laggard", delay="max", clock=clock, rounds=8), 16, period=0.015)
    together = run_lanes(block)
    alone = [run_lanes([lane])[0] for lane in block]
    assert together == alone
    reasons = {outcome.fallback for outcome in together}
    assert reasons == {None, "rounds 1 and 2 share an instant"}
    for outcome in together:
        assert (outcome.summary is None) == (outcome.fallback is not None)


# -- phase 2: the per-round instant index ------------------------------------------------


def scan_instants(rd):
    """The two ``range(A)`` scans per instant ``_process_round`` used to run."""
    actors = range(len(rd.T))
    times = {rd.T[j] for j in actors if rd.ann[j]} | {rd.Acc[j] for j in actors if rd.valid[j]}
    return [
        (
            tau,
            [j for j in actors if rd.valid[j] and rd.Acc[j] == tau],
            [j for j in actors if rd.ann[j] and rd.T[j] == tau],
        )
        for tau in sorted(times)
    ]


def test_instant_index_equals_per_instant_scans():
    np = numpy_or_none()
    shared = 0
    for family in LOCKSTEP_FAMILIES:
        block = lanes(family, 2)
        layout = _Layout(block[0], np)
        offsets = [_lane_offsets_list(layout, lane) for lane in block]
        drift = vectorized._DriftTables(layout, block) if layout.clock_mode == "random" else None
        for rounds in _phase1(layout, block, offsets, drift):
            for rd in rounds:
                indexed = [(tau, list(accs), list(anns)) for tau, accs, anns in _instants(rd)]
                assert indexed == scan_instants(rd)
                shared += sum(len(accs) >= 2 or len(anns) >= 2 for _, accs, anns in indexed)
    assert shared > 50, "no shared instants: the families lost their point"


# -- one layout per family ---------------------------------------------------------------


def recording(cls):
    """A subclass of dataclass ``cls`` that logs every field read off its instances."""
    fields = {field.name for field in dataclasses.fields(cls)}
    reads: set = set()

    class Recording(cls):
        def __getattribute__(self, name):
            if name in fields:
                reads.add(name)
            return super().__getattribute__(name)

    return Recording, reads


#: One changed value per keyed field; ``alpha`` is keyed through ``alpha_value``.
KEYED_PARAMS = dict(n=8, f=2, rho=2e-4, period=1.5, tmin=0.001, tdel=0.02, alpha=0.05)
KEYED_SCENARIO = dict(
    algorithm="echo", attack="eager", clock_mode="nominal", delay_mode="max",
    actual_faults=2, rounds=5,
)


@pytest.fixture
def no_layout_kept(monkeypatch):
    monkeypatch.setattr(vectorized, "_last_layout", (None, None))


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(),  # lockstep, fixed-rate clocks
        dict(attack="two_faced", clock="random"),  # lockstep, _DriftTables
        dict(algorithm="echo", attack="random_laggard", clock="random", delay="uniform"),  # replay
    ],
    ids=["lockstep", "lockstep-drifting", "replay-drifting"],
)
def test_layout_memo_key_covers_every_field_a_layout_reads(kwargs, no_layout_kept):
    np = numpy_or_none()
    plain = cell(7, rounds=4, **kwargs)
    RecordingParams, params_reads = recording(SyncParams)
    RecordingScenario, scenario_reads = recording(Scenario)
    probe = RecordingScenario(
        **{
            **{f.name: getattr(plain, f.name) for f in dataclasses.fields(Scenario)},
            "params": RecordingParams(**dataclasses.asdict(plain.params)),
        }
    )

    def snapshot():
        seen = (set(scenario_reads), set(params_reads))
        scenario_reads.clear()
        params_reads.clear()
        return seen

    snapshot()  # drop what construction read
    key = _layout_key(probe)
    keyed_scenario, keyed_params = snapshot()
    assert keyed_scenario == set(KEYED_SCENARIO) | {"params"}
    assert keyed_params == set(KEYED_PARAMS)

    layout = _layout_for(key, probe, np)
    layout_scenario, layout_params = snapshot()
    assert layout_scenario <= keyed_scenario
    # A lane of the same family runs off the memoised layout: whatever
    # _phase1, _ExactReplay, _honest_drifting_clocks and _finalize_lane read
    # off layout.params lands on the probe's params, the lane's own fields
    # (seed, offset spread, horizon) on the lane.
    lane = dataclasses.replace(
        plain, seed=plain.seed + 1,
        params=dataclasses.replace(plain.params, initial_offset_spread=0.005), name="",
    )
    assert run_lanes([lane])[0].fallback is None
    assert vectorized._last_layout == (key, layout)
    run_scenario_reads, run_params = snapshot()
    assert not run_scenario_reads
    assert layout_params | run_params <= keyed_params
    assert run_params, "nothing read layout.params: the probe lost its point"


def test_layout_memo_shares_per_family_and_keeps_one(no_layout_kept):
    np = numpy_or_none()
    base = cell(7)

    def layout_of(scenario):
        return _layout_for(_layout_key(scenario), scenario, np)

    first = layout_of(base)
    other_lane = dataclasses.replace(
        base, seed=base.seed + 99, sample_messages=3, replications=4,
        params=dataclasses.replace(base.params, initial_offset_spread=0.5), name="",
    )
    assert layout_of(other_lane) is first
    changed = [
        dataclasses.replace(base, params=dataclasses.replace(base.params, **{name: value}), name="")
        for name, value in KEYED_PARAMS.items()
    ] + [
        dataclasses.replace(base, **{name: value}, name="") for name, value in KEYED_SCENARIO.items()
    ]
    assert len({_layout_key(scenario) for scenario in [base, *changed]}) == len(changed) + 1
    fresh = [layout_of(scenario) for scenario in changed]
    assert len({id(layout) for layout in [first, *fresh]}) == len(changed) + 1
    # Only the family served last is kept: that entry is all the state there is.
    assert vectorized._last_layout == (_layout_key(changed[-1]), fresh[-1])
    assert layout_of(changed[-1]) is fresh[-1]
    assert layout_of(base) is not first
