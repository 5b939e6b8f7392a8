"""Float-for-float parity between the event loop and the vector kernel.

The vector kernel (``repro.sim.vectorized``) is only allowed to replace the
event loop for scenario families it matches float-for-float -- these tests
pin that contract across the eligible attacks, delay/clock modes, tie-heavy
degenerate grids and message sampling, assert the lane-batched replication
path equals the serial fold, and check that every ineligible scenario falls
back to the event loop instead of erroring, with the reason in the result's
``KernelProvenance``.
"""

from __future__ import annotations

import dataclasses
import os
import random
import subprocess
import sys

import pytest

import repro

from repro import obs
from repro.experiments.common import MEASURED_RESULT_FIELDS
from repro.sim import vectorized
from repro.sim.kernel import (
    ELIGIBLE_ATTACKS,
    ELIGIBLE_CLOCK_MODES,
    ELIGIBLE_DELAY_MODES,
    KERNELS,
    kernel_ineligibility,
    numpy_or_none,
    resolve_kernel,
)
from repro.sim.vectorized import (
    LaneOutcome,
    _ExactReplay,
    _honest_drifting_clocks,
    _Layout,
    run_lanes,
)
from repro.sim.clocks import rate_bounds
from repro.sim.recorder import FullTraceRecorder, Recorder
from repro.workloads.scenarios import (
    Scenario,
    build_cluster,
    classify_lane,
    merge_kernel_provenance,
    run_scenario,
    run_shard,
)
from repro.core.params import SyncParams

pytestmark = pytest.mark.skipif(numpy_or_none() is None, reason="numpy not installed")


def cell(
    n,
    attack="skew_max",
    clock="extreme",
    delay="targeted",
    rounds=8,
    spread=0.01,
    seed=None,
    sample=None,
    algorithm="auth",
    f=None,
    **kwargs,
):
    if f is None:
        # Each algorithm's resilience optimum: n > 2f with signatures,
        # n > 3f without.
        f = (n - 1) // 3 if algorithm == "echo" else (n - 1) // 2
    params = SyncParams(
        n=n,
        f=f,
        rho=1e-4,
        tdel=0.01,
        tmin=0.0,
        period=1.0,
        initial_offset_spread=spread,
    )
    return Scenario(
        params=params,
        algorithm=algorithm,
        rounds=rounds,
        attack=attack,
        clock_mode=clock,
        delay_mode=delay,
        seed=100 + n if seed is None else seed,
        sample_messages=sample,
        **kwargs,
    )


def echo_cell(n, **kwargs):
    """An echo-algorithm cell within the ``n > 3f`` resilience bound."""
    return cell(n, algorithm="echo", **kwargs)


#: The streamed fields E6, E7 and E11 read, outside MEASURED_RESULT_FIELDS.
HISTORY_FIELDS = ("steady_start", "settled_skew", "max_backward_adjustment", "join_latencies")


def assert_results_identical(event_result, vector_result, label=""):
    for field in MEASURED_RESULT_FIELDS + HISTORY_FIELDS:
        assert getattr(event_result, field) == getattr(vector_result, field), (
            f"{label}: {field} differs"
        )
    assert event_result.accuracy == vector_result.accuracy, f"{label}: accuracy differs"
    assert event_result.guarantees == vector_result.guarantees, f"{label}: guarantees differ"
    assert event_result.message_samples == vector_result.message_samples, (
        f"{label}: message samples differ"
    )


def run_both(scenario):
    """The scenario on both kernels; asserts the vector kernel served the compared run."""
    event, vector = (
        run_scenario(dataclasses.replace(scenario, kernel=kernel), trace_level="metrics")
        for kernel in ("event", "auto")
    )
    assert vector.kernel_provenance.vector_lanes == 1, (
        f"unexpected fallback: {vector.kernel_provenance.fallback_reasons}"
    )
    return event, vector


def measure_both(scenario):
    """``(event, vector)`` results with the guarantees only measured, not checked.

    For scenarios outside the bounds' validity range (periods shorter than
    ``tdel`` and the like); asserts the vector kernel actually served.
    """
    event, vector = (
        run_scenario(
            dataclasses.replace(scenario, kernel=kernel),
            check_guarantees=False, trace_level="metrics",
        )
        for kernel in ("event", "auto")
    )
    assert vector.kernel_provenance.vector_lanes == 1, (
        f"{scenario}: {vector.kernel_provenance.fallback_reasons}"
    )
    return event, vector


# -- single-run parity across the eligible families -------------------------------------


@pytest.mark.parametrize("n", [5, 7, 14])
def test_parity_skew_max_targeted(n):
    event, vector = run_both(cell(n))
    assert_results_identical(event, vector, f"skew_max n={n}")


@pytest.mark.parametrize("attack", [None, "silent", "crash", "eager", "two_faced", "laggard"])
def test_parity_per_attack(attack):
    event, vector = run_both(cell(7, attack=attack))
    assert_results_identical(event, vector, f"attack={attack}")


@pytest.mark.parametrize("delay", ["max", "midpoint", "targeted"])
def test_parity_per_delay_mode(delay):
    event, vector = run_both(cell(9, attack="eager", delay=delay))
    assert_results_identical(event, vector, f"delay={delay}")


def test_parity_nominal_clocks():
    event, vector = run_both(cell(7, clock="nominal"))
    assert_results_identical(event, vector, "nominal clocks")


def test_parity_tie_heavy():
    """Zero spread + nominal clocks + uniform max delay: every instant shared.

    Every round-k timer fires at exactly ``k*P`` and every acceptance lands at
    exactly ``k*P + tdel``, so the whole run resolves through the kernel's
    exact tie-resolution walk -- the hardest ordering regime it supports.
    """
    for attack in (None, "crash", "skew_max"):
        delay = "targeted" if attack == "skew_max" else "max"
        event, vector = run_both(
            cell(7, attack=attack, clock="nominal", delay=delay, spread=0.0)
        )
        assert_results_identical(event, vector, f"tie-heavy attack={attack}")


@pytest.mark.parametrize("sample", [1, 3])
def test_parity_message_sampling(sample):
    event, vector = run_both(cell(7, sample=sample))
    assert event.message_samples is not None
    assert_results_identical(event, vector, f"sampling K={sample}")


@pytest.mark.parametrize("seed", [0, 1, 17, 202])
def test_parity_seed_sweep(seed):
    event, vector = run_both(cell(7, seed=seed, rounds=6))
    assert_results_identical(event, vector, f"seed={seed}")


# -- echo algorithm parity ---------------------------------------------------------------


@pytest.mark.parametrize("n", [4, 7, 13])
def test_parity_echo_skew_max_targeted(n):
    event, vector = run_both(echo_cell(n))
    assert_results_identical(event, vector, f"echo skew_max n={n}")


@pytest.mark.parametrize(
    "attack",
    [None, "silent", "crash", "eager", "two_faced", "laggard", "forge_flood"],
)
def test_parity_echo_per_attack(attack):
    event, vector = run_both(echo_cell(7, attack=attack))
    assert_results_identical(event, vector, f"echo attack={attack}")


@pytest.mark.parametrize("delay", ["max", "midpoint", "targeted", "uniform"])
def test_parity_echo_per_delay_mode(delay):
    event, vector = run_both(echo_cell(10, attack="eager", delay=delay))
    assert_results_identical(event, vector, f"echo delay={delay}")


def test_parity_echo_tie_heavy():
    """Zero spread + nominal clocks: echo's hardest shared-instant regime."""
    for attack in (None, "crash", "skew_max"):
        delay = "targeted" if attack == "skew_max" else "max"
        event, vector = run_both(
            echo_cell(7, attack=attack, clock="nominal", delay=delay, spread=0.0)
        )
        assert_results_identical(event, vector, f"echo tie-heavy attack={attack}")


# -- uniform delays and randomized attacks -----------------------------------------------


@pytest.mark.parametrize(
    "attack", [None, "crash", "eager", "two_faced", "laggard", "skew_max", "forge_flood"]
)
def test_parity_uniform_delay_per_attack(attack):
    event, vector = run_both(cell(7, attack=attack, delay="uniform"))
    assert_results_identical(event, vector, f"uniform attack={attack}")


@pytest.mark.parametrize("seed", [0, 3, 91, 555])
def test_parity_uniform_delay_seed_sweep(seed):
    event, vector = run_both(cell(9, delay="uniform", seed=seed, rounds=6))
    assert_results_identical(event, vector, f"uniform seed={seed}")


@pytest.mark.parametrize("algorithm", ["auth", "echo"])
def test_parity_forge_flood(algorithm):
    event, vector = run_both(cell(8, attack="forge_flood", algorithm=algorithm))
    assert_results_identical(event, vector, f"forge_flood {algorithm}")


@pytest.mark.parametrize("seed", [0, 7, 123])
def test_parity_echo_uniform_forge_flood_grid(seed):
    """The fully randomized corner: echo + uniform delays + flooding adversaries."""
    event, vector = run_both(
        echo_cell(10, attack="forge_flood", delay="uniform", seed=seed, rounds=6)
    )
    assert_results_identical(event, vector, f"echo/uniform/forge_flood seed={seed}")


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(algorithm="echo", sample=1),
        dict(algorithm="echo", delay="uniform", sample=3),
        dict(delay="uniform", attack="laggard", sample=1),
        dict(delay="uniform", attack="forge_flood", sample=2),
        dict(delay="uniform", attack="forge_flood", sample=5),
        dict(algorithm="echo", delay="uniform", attack="forge_flood", sample=1),
        dict(algorithm="echo", delay="uniform", attack="forge_flood", sample=7),
    ],
)
def test_parity_message_sampling_new_families(kwargs):
    """Sampled wire provenance (send/deliver instants included) stays identical.

    The laggard cell pins the no-draw rule (explicit delays bypass the
    network RNG); the forge_flood cells pin the adversary-stream interleaving
    and the unread-traffic rule: their forged and garbage broadcasts take no
    delay draws on the replay, yet a sample landing on one must carry the
    delay the event loop drew.
    """
    kwargs = dict(kwargs)
    sample = kwargs.pop("sample")
    event, vector = run_both(cell(9, sample=sample, **kwargs))
    assert event.message_samples is not None
    if kwargs.get("attack") == "forge_flood":
        unread = [s for s in vector.message_samples if s.kind == "GarbageMessage"]
        assert unread, "no sample inside an undelivered batch: cell lost its point"
        assert all(s.deliver_time > s.send_time for s in unread)
    assert_results_identical(event, vector, f"sampling {kwargs}")


def test_new_families_resolve_to_vector_under_auto(monkeypatch):
    monkeypatch.delenv("REPRO_KERNEL", raising=False)
    for scenario in (
        echo_cell(7),
        cell(7, delay="uniform"),
        cell(7, attack="forge_flood"),
        echo_cell(7, attack="forge_flood", delay="uniform"),
        cell(7, attack="random_silence"),
        cell(7, clock="random"),
        cell(7, delay="min"),
        echo_cell(7, attack="random_laggard", clock="random", delay="min"),
    ):
        result = run_scenario(scenario, trace_level="metrics")
        assert result.kernel_provenance is not None, scenario.name
        assert result.kernel_provenance.resolved == "auto"
        assert result.kernel_provenance.vector_lanes == 1, scenario.name


# -- random_* attacks, drifting clocks and min delays ------------------------------------


@pytest.mark.parametrize(
    "attack", ["random_silence", "random_two_faced", "random_laggard"]
)
@pytest.mark.parametrize("algorithm", ["auth", "echo"])
def test_parity_random_attacks(attack, algorithm):
    event, vector = run_both(cell(9, attack=attack, algorithm=algorithm))
    assert_results_identical(event, vector, f"{algorithm} {attack}")


@pytest.mark.parametrize(
    "attack", ["random_silence", "random_two_faced", "random_laggard"]
)
@pytest.mark.parametrize("delay", ["uniform", "min"])
def test_parity_random_attacks_random_delays(attack, delay):
    """Adversary draws interleave with network draws (or zero-delay cascades)."""
    event, vector = run_both(cell(9, attack=attack, delay=delay))
    assert_results_identical(event, vector, f"{attack} delay={delay}")


@pytest.mark.parametrize("delay", ["max", "midpoint", "targeted"])
def test_parity_drifting_clocks_lockstep(delay):
    # auth + deterministic attack + deterministic delays: the lockstep array
    # path, with the segment-walk inversion replacing the closed form.
    event, vector = run_both(
        cell(9, attack="two_faced", clock="random", delay=delay)
    )
    assert_results_identical(event, vector, f"drifting lockstep delay={delay}")


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(algorithm="echo"),
        dict(delay="uniform"),
        dict(delay="min"),
        dict(attack="forge_flood"),
        dict(algorithm="echo", attack="forge_flood", delay="uniform"),
    ],
)
def test_parity_drifting_clocks_exact_replay(kwargs):
    event, vector = run_both(cell(9, clock="random", **kwargs))
    assert_results_identical(event, vector, f"drifting replay {kwargs}")


@pytest.mark.parametrize("seed", [0, 5, 42])
def test_parity_drifting_seed_sweep(seed):
    event, vector = run_both(cell(8, clock="random", seed=seed, rounds=6))
    assert_results_identical(event, vector, f"drifting seed={seed}")


@pytest.mark.parametrize("algorithm", ["auth", "echo"])
@pytest.mark.parametrize("attack", [None, "crash", "eager", "two_faced", "laggard"])
def test_parity_min_delay_zero_tmin(algorithm, attack):
    # cell() sets tmin = 0, so every policy delay collapses to 0.0 and whole
    # rounds run as zero-delay cascades resolved purely by creation-seq order.
    event, vector = run_both(cell(9, attack=attack, delay="min", algorithm=algorithm))
    assert_results_identical(event, vector, f"min {algorithm} attack={attack}")


def test_parity_min_delay_message_sampling():
    event, vector = run_both(cell(9, delay="min", attack="eager", sample=2))
    assert event.message_samples is not None
    assert_results_identical(event, vector, "min sampling")


def test_parity_randomized_cross_product_grid():
    """random_* x drifting x {uniform, min} x {auth, echo}, randomized cells."""
    picker = random.Random(2026)
    attacks = ["random_silence", "random_two_faced", "random_laggard"]
    for _ in range(6):
        kwargs = dict(
            attack=picker.choice(attacks),
            clock=picker.choice(["random", "extreme", "nominal"]),
            delay=picker.choice(["uniform", "min"]),
            algorithm=picker.choice(["auth", "echo"]),
            seed=picker.randrange(1000),
            rounds=5,
        )
        event, vector = run_both(cell(picker.choice([7, 9, 10]), **kwargs))
        assert_results_identical(event, vector, f"cross-product {kwargs}")


# -- several timers and an acceptance on one instant --------------------------------------


def shared_instant_cell(n, attack, period=1.0, tdel=0.01, rounds=4, seed=0, sample=3):
    """Equal-rate clocks, zero spread, ``tmin = 0``, targeted delays.

    Every round-k timer fires at the same instant and the fast group's
    zero-delay deliveries land on it too, so the acceptor's bundle goes out
    after *every* announce of the instant (timers hold the smaller event
    seqs), not right after the acceptor's own.
    """
    params = SyncParams(
        n=n, f=(n - 1) // 2, rho=1e-5, tdel=tdel, tmin=0.0, period=period,
        initial_offset_spread=0.0,
    )
    return Scenario(
        params=params, algorithm="auth", rounds=rounds, attack=attack,
        clock_mode="nominal", delay_mode="targeted", seed=seed,
        sample_messages=sample,
    )


@pytest.mark.parametrize(
    "scenario",
    [
        shared_instant_cell(
            5, "skew_max", period=0.25, tdel=0.005, rounds=6, seed=217329, sample=1
        ),
        shared_instant_cell(4, None),
        shared_instant_cell(5, None),
        shared_instant_cell(4, "two_faced"),
        shared_instant_cell(5, "two_faced"),
        shared_instant_cell(4, "crash", rounds=3, seed=917209, sample=1),
    ],
    ids=lambda scenario: f"{scenario.attack}-n{scenario.params.n}",
)
def test_parity_acceptance_among_several_timers_of_one_instant(scenario):
    event, vector = run_both(scenario)
    assert_results_identical(event, vector, scenario.name)


# -- generated scenarios -------------------------------------------------------------------


#: The first seed whose draws reach an acceptance among several timers of one
#: instant (draw 90: auth n=5, crash, targeted, zero spread, every message
#: sampled), the cell the lockstep walk used to mis-order.
GENERATED_SWEEP_SEED = 14


def generated_scenario(rng):
    """One draw from the whole eligible space, degenerate corners included."""
    algorithm = rng.choice(["auth", "echo"])
    n = rng.randint(3, 12)
    f = rng.randint(0, (n - 1) // (3 if algorithm == "echo" else 2))
    tdel = rng.choice([0.005, 0.01])
    params = SyncParams(
        n=n,
        f=f,
        rho=rng.choice([1e-5, 1e-4]),
        tdel=tdel,
        tmin=rng.choice([0.0, tdel / 4, tdel]),
        period=rng.choice([0.05, 0.25, 1.0]),
        initial_offset_spread=rng.choice([0.0, 0.001, 0.01]),
    )
    return Scenario(
        params=params,
        algorithm=algorithm,
        rounds=rng.randint(3, 6),
        attack=rng.choice(sorted(ELIGIBLE_ATTACKS, key=str)),
        actual_faults=rng.choice([f, f, rng.randint(0, f)]),
        clock_mode=rng.choice(sorted(ELIGIBLE_CLOCK_MODES)),
        delay_mode=rng.choice(sorted(ELIGIBLE_DELAY_MODES)),
        sample_messages=rng.choice([None, 1, 2, 5, 7]),
        seed=rng.randrange(1_000_000),
    )


def test_parity_generated_scenario_sweep():
    """Seeded draws over every eligible dimension at once, not a hand-picked grid.

    Each kept draw must be vector-served (no dynamic refusal hides behind the
    event loop) and equal the event loop in every measured field and every
    sampled message.  The periods reach below the bounds' validity range, so
    the guarantees are only measured.
    """
    rng = random.Random(GENERATED_SWEEP_SEED)
    kept = 0
    while kept < 240:
        scenario = generated_scenario(rng)
        if kernel_ineligibility(scenario, "metrics") is not None:
            continue
        kept += 1
        event, vector = measure_both(scenario)
        assert_results_identical(event, vector, repr(scenario))


# -- touched-round acceptance: a future round first ---------------------------------------


@pytest.mark.parametrize(
    "algorithm, seed", [("auth", 1), ("auth", 5), ("echo", 1)]
)
def test_future_round_reaching_threshold_first_is_accepted_at_once(algorithm, seed):
    """``round_ >= cur``, not ``== cur``: the replay accepts the touched round only.

    With the period shorter than ``tdel`` a relayed proof (or the 2f+1-th
    echo) for round k+1 can overtake every round-k message still in flight,
    so a process holds a reached round *above* its current one.  The event
    loop's ``try_accept`` accepts it at once and the skipped rounds, now
    below the floor, never are; the replay must do the same from its one
    touched-round check.
    """
    base = cell(4, algorithm=algorithm, attack=None, delay="uniform", rounds=12, seed=seed)
    scenario = dataclasses.replace(
        base, params=dataclasses.replace(base.params, period=0.004), name=""
    )
    replay = _ExactReplay(_Layout(scenario, numpy_or_none()), scenario)
    replay.run()  # raises LaneFallback if the lane leaves the replay's regime
    accepted: dict = {}
    for _time, pid, round_, *_ in replay.emissions:
        accepted.setdefault(pid, []).append(round_)
    for rounds in accepted.values():
        assert rounds == sorted(set(rounds))  # in order, each at most once
    assert any(
        rounds != list(range(1, len(rounds) + 1)) for rounds in accepted.values()
    ), "no process skipped a round: scenario lost its point"
    # The period is out of the bounds' validity range, so only measure.
    event, vector = measure_both(scenario)
    assert_results_identical(event, vector, f"skipped rounds {algorithm} seed={seed}")


# -- replayed RNG streams ----------------------------------------------------------------


def test_replayed_rng_streams_pin_fault_and_network_layers():
    """The vector kernel replays these exact streams; a reseed must fail here."""
    scenario = cell(8, attack="forge_flood", delay="uniform")
    handles = build_cluster(scenario, trace_level="metrics")
    # Network RNG: one stream seeded scenario.seed + 1, consumed per send.
    assert handles.sim.network.rng.getstate() == random.Random(scenario.seed + 1).getstate()
    # Each flooding adversary replays random.Random(seed + pid).
    for proc in handles.faulty:
        assert proc._rng.getstate() == random.Random(scenario.seed + proc.pid).getstate()
    # The uniform policy draws one unit sample per message, scaled into
    # [tmin, tdel] by the network (no clamp on the scaled value).
    probe, mirror = random.Random(7), random.Random(7)
    raw = handles.sim.network.policy.delay(0, 1, None, 0.0, probe)
    assert raw == mirror.random()
    assert handles.sim.network.send(0, 1, None).deliver_time == (
        scenario.params.tmin
        + random.Random(scenario.seed + 1).random()
        * (scenario.params.tdel - scenario.params.tmin)
    )


@pytest.mark.parametrize(
    "attack", ["random_silence", "random_two_faced", "random_laggard"]
)
def test_random_behavior_streams_pin_fault_layer(attack):
    """Each random_* adversary consumes random.Random(seed + pid); the vector
    kernel replays exactly that stream through its per-behaviour draw table,
    so the seeding discipline is load-bearing."""
    scenario = cell(9, attack=attack)
    handles = build_cluster(scenario, trace_level="metrics")
    assert handles.faulty
    for proc in handles.faulty:
        assert proc._rng.getstate() == random.Random(scenario.seed + proc.pid).getstate()


def test_drift_rate_trajectory_pins_clock_layer():
    """A lane's drifting clocks are Random(seed * 1009 + index), draw for draw."""
    scenario = cell(7, clock="random")
    layout = _Layout(scenario, numpy_or_none())
    lo, hi = rate_bounds(scenario.params.rho)
    for index, clock in enumerate(_honest_drifting_clocks(layout, scenario)):
        mirror = random.Random(scenario.seed * 1009 + index)
        assert list(clock._rates) == [mirror.uniform(lo, hi) for _ in clock._rates]


# -- lane batching -----------------------------------------------------------------------


@pytest.mark.parametrize(
    "base_kwargs",
    [
        dict(),
        dict(algorithm="echo"),
        dict(delay="uniform"),
        dict(algorithm="echo", attack="forge_flood", delay="uniform"),
    ],
)
def test_lane_batched_equals_serial_replications(base_kwargs):
    base = cell(7, rounds=6, **base_kwargs)
    event = run_scenario(
        dataclasses.replace(base, kernel="event", replications=5, shards=1, name=""),
        trace_level="metrics",
    )
    vector = run_scenario(
        dataclasses.replace(base, kernel="auto", replications=5, shards=1, name=""),
        trace_level="metrics",
    )
    assert_results_identical(event, vector, f"lane batching {base_kwargs}")
    assert event.shard_horizons == vector.shard_horizons
    assert vector.kernel_provenance is not None
    assert vector.kernel_provenance.vector_lanes == 5


@pytest.mark.parametrize(
    "base_kwargs",
    [dict(), dict(algorithm="echo"), dict(delay="uniform", attack="forge_flood")],
)
def test_run_shard_lane_fold_order(base_kwargs):
    base = cell(7, rounds=6, kernel="auto", **base_kwargs)
    lane = run_shard(dataclasses.replace(base, replications=4), 0, (0, 1, 2, 3))
    serial = run_shard(
        dataclasses.replace(base, replications=4, kernel="event"), 0, (0, 1, 2, 3)
    )
    assert lane.summary == serial.summary
    # The window-rate extremes exist only once compacted; compare them there.
    assert lane.summary.compact() == serial.summary.compact()
    assert lane.summary.compact().fastest_window_rate is not None
    assert lane.provenance.vector_lanes == 4
    assert lane.provenance.fallback_lanes == 0
    assert serial.provenance.vector_lanes == 0
    assert serial.provenance.ineligible_lanes == 4


# -- selection, fallback and eligibility -------------------------------------------------


def test_ineligible_scenario_falls_back_with_note():
    scenario = cell(7, kernel="auto", attack="replay")  # not vectorized
    reason = kernel_ineligibility(scenario, "metrics")
    assert reason is not None
    result = run_scenario(scenario, trace_level="metrics")
    # The provenance record is the note: the lane, the engine and the reason.
    assert result.kernel_provenance == classify_lane(scenario, "metrics")
    assert result.kernel_provenance.ineligible_reason == reason
    assert result.kernel_provenance.describe() == f"kernel auto: 1 ineligible ({reason})"
    event = run_scenario(
        dataclasses.replace(scenario, kernel="event"), trace_level="metrics"
    )
    assert_results_identical(event, result, "ineligible fallback")


def test_fallback_note_recorded_in_summary():
    scenario = cell(7, kernel="auto", attack="replay", replications=2, shards=1)
    outcome = run_shard(scenario, 0, (0, 1))
    reason = kernel_ineligibility(scenario, "metrics")
    # One deduplicated reason, counted with its lanes -- in the provenance,
    # the one record of the kernel decision; the summary keeps no notes.
    assert outcome.provenance.ineligible_lanes == 2
    assert outcome.provenance.ineligible_reason == reason
    assert outcome.provenance.describe() == f"kernel auto: 2 ineligible ({reason})"
    assert not hasattr(outcome.summary, "notes")


def test_dynamic_fallback_notes_deduped_and_counted():
    # Statically eligible (honest = 4 >= f+1 = 3) but the echo acceptance
    # threshold 2f+1 = 5 is out of reach, so every lane falls back
    # dynamically when its event heap drains.
    scenario = cell(
        7, algorithm="echo", attack="silent", actual_faults=3, rounds=3,
        kernel="auto", replications=2, shards=1,
    )
    assert kernel_ineligibility(scenario, "metrics") is None
    outcome = run_shard(scenario, 0, (0, 1))
    assert outcome.provenance.fallback_lanes == 2
    assert outcome.provenance.vector_lanes == 0
    ((reason, lanes),) = outcome.provenance.fallback_reasons
    assert lanes == 2
    assert outcome.provenance.describe().endswith(f"2 fell back ({reason} (2 lanes))")
    # And the lanes the event loop re-ran fold to the very summary the event
    # loop alone produces: a summary is a pure function of its execution.
    serial = run_shard(dataclasses.replace(scenario, kernel="event"), 0, (0, 1))
    assert outcome.summary == serial.summary
    assert outcome.summary.compact() == serial.summary.compact()


def test_auto_ineligible_records_no_note(monkeypatch):
    noted = []
    monkeypatch.setattr(Recorder, "on_note", lambda self, text: noted.append(text))
    scenario = cell(7, kernel="auto", attack="replay", replications=2, shards=1)
    outcome = run_shard(scenario, 0, (0, 1))
    assert noted == []
    assert outcome.provenance.ineligible_lanes == 2
    assert outcome.provenance.fallback_reasons == ()


def test_eligibility_reasons():
    assert kernel_ineligibility(cell(7), "metrics") is None
    assert "full" in kernel_ineligibility(cell(7), "full")
    # PRs 7 and 9 widened the whitelist: echo, uniform/min delays, drifting
    # clocks, forge_flood and the random_* strategies are served now; the
    # regenerated reason strings must never claim otherwise.
    assert kernel_ineligibility(cell(7, delay="uniform"), "metrics") is None
    assert kernel_ineligibility(echo_cell(7, attack=None), "metrics") is None
    assert kernel_ineligibility(cell(7, attack="forge_flood"), "metrics") is None
    assert kernel_ineligibility(
        echo_cell(10, attack="forge_flood", delay="uniform"), "metrics"
    ) is None
    assert kernel_ineligibility(cell(7, delay="min"), "metrics") is None
    assert kernel_ineligibility(cell(7, clock="random"), "metrics") is None
    for attack in ("random_silence", "random_two_faced", "random_laggard"):
        assert kernel_ineligibility(cell(7, attack=attack), "metrics") is None
    reason = kernel_ineligibility(cell(7, attack="replay"), "metrics")
    assert "attack" in reason and "'forge_flood'" in reason
    assert "'random_silence'" in reason  # reason strings stay set-derived
    # The clock_mode reason is regenerated from ELIGIBLE_CLOCK_MODES too
    # (it used to hardcode "drifting clocks"); probe with a duck-typed
    # scenario carrying a clock mode no Scenario can hold.
    import types

    bogus_clock = types.SimpleNamespace(
        algorithm="auth", attack=None, clock_mode="quartz"
    )
    reason = kernel_ineligibility(bogus_clock, "metrics")
    assert "clock_mode" in reason and "'random'" in reason and "'extreme'" in reason
    assert "not vectorized" in kernel_ineligibility(
        cell(7, attack=None, use_startup=True), "metrics"
    )
    assert "joiner" in kernel_ineligibility(
        cell(7, joiner_count=1, join_time=2.0), "metrics"
    )
    lw = dataclasses.replace(cell(7, attack=None), algorithm="lundelius_welch", name="")
    reason = kernel_ineligibility(lw, "metrics")
    assert "algorithm" in reason and "'echo'" in reason
    # Out-of-bound echo configurations raise in the event loop's tracker;
    # the vector layer must refuse statically rather than mask the error.
    bad_echo = cell(7, algorithm="echo", f=3)
    assert "n > 3f" in kernel_ineligibility(bad_echo, "metrics")


#: id -> (``cell`` keywords, trace level, a fragment of the static reason --
#: ``None`` where the classifier names none).  One entry per reason
#: ``kernel_ineligibility`` can return on a ``Scenario``, plus the three
#: verdicts without one.
STATIC_VERDICTS = {
    "full-trace": (dict(), "full", "full traces"),
    "baseline": (dict(algorithm="lundelius_welch", attack=None), "metrics", "algorithm"),
    "unlisted-attack": (dict(attack="replay"), "metrics", "attack"),
    "startup": (dict(attack=None, use_startup=True), "metrics", "start-up"),
    "joiner": (dict(joiner_count=1, join_time=2.0), "metrics", "joiner"),
    "monotonic": (dict(monotonic=True), "metrics", "monotonic"),
    "grace": (dict(grace=0.1), "metrics", "grace"),
    "echo-n-le-3f": (dict(algorithm="echo", f=3), "metrics", "n > 3f"),
    "too-few-honest": (dict(attack="silent", actual_faults=4), "metrics", "honest"),
    "lockstep": (dict(), "metrics", None),
    "replay": (dict(delay="uniform"), "metrics", None),
    "event": (dict(kernel="event", attack="replay"), "metrics", None),
}


@pytest.mark.parametrize(
    "case, replications",
    [(case, 1) for case in STATIC_VERDICTS]
    + [(case, 3) for case in STATIC_VERDICTS if case != "full-trace"],  # full traces do not replicate
)
def test_static_verdict_is_what_ran(case, replications, monkeypatch):
    """``classify_lane`` (what ``repro kernel`` prints) is the record the run path attaches.

    It is the only record: the run annotates no recorder with the verdict.
    """
    kwargs, level, fragment = STATIC_VERDICTS[case]
    noted = []
    for recorder in (Recorder, FullTraceRecorder):
        monkeypatch.setattr(recorder, "on_note", lambda self, text: noted.append(text))
    kernel = kwargs.get("kernel", "auto")
    scenario = cell(7, **{"rounds": 3, "kernel": kernel, **kwargs})
    record = classify_lane(scenario, level)
    assert (record.resolved, record.total_lanes, record.fallback_lanes) == (kernel, 1, 0)
    if fragment is None:
        assert record.ineligible_reason is None
        assert record.vector_lanes == (kernel != "event")
    else:
        assert fragment in record.ineligible_reason and record.ineligible_lanes == 1
    scenario = dataclasses.replace(scenario, replications=replications, shards=1, name="")
    if case == "echo-n-le-3f":  # the event loop's constructor error still surfaces
        with pytest.raises(ValueError, match="n > 3f"):
            run_scenario(scenario, False, level)
        return
    ran = run_scenario(scenario, False, level).kernel_provenance
    assert ran == merge_kernel_provenance(kernel, [record] * replications)
    assert noted == []


def test_numpy_is_probed_last_and_its_absence_changes_no_number(monkeypatch):
    import repro.sim.kernel as kernel_module

    scenario = cell(7, kernel="auto")
    served = run_scenario(scenario, trace_level="metrics")
    assert served.kernel_provenance.vector_lanes == 1
    monkeypatch.setattr(kernel_module, "numpy_or_none", lambda: None)
    # Static reasons still win: they are checked before the probe.
    assert "full" in kernel_ineligibility(scenario, "full")
    assert "attack" in kernel_ineligibility(cell(7, attack="replay"), "metrics")
    assert kernel_ineligibility(scenario, "metrics") == "numpy is not installed"
    fallen = run_scenario(scenario, trace_level="metrics")
    assert fallen.kernel_provenance.vector_lanes == 0
    assert fallen.kernel_provenance.ineligible_reason == "numpy is not installed"
    assert_results_identical(served, fallen, "numpy absent")


def test_event_loop_only_process_never_imports_numpy():
    """Full traces resolve to the event loop before the numpy probe is reached."""
    script = (
        "import sys\n"
        "from repro.core.params import SyncParams\n"
        "from repro.workloads.scenarios import Scenario, run_scenario\n"
        "scenario = Scenario(params=SyncParams(n=7, f=3), algorithm='auth', rounds=3,\n"
        "                    attack='skew_max', delay_mode='targeted')\n"
        "result = run_scenario(scenario, trace_level='full')\n"
        "assert result.guarantees_hold\n"
        "assert 'numpy' not in sys.modules, 'numpy imported on an event-loop-only path'\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    env.pop("REPRO_KERNEL", None)
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr


def test_resolve_kernel_env_and_field(monkeypatch):
    monkeypatch.delenv("REPRO_KERNEL", raising=False)
    assert resolve_kernel(cell(5)) == "auto"
    monkeypatch.setenv("REPRO_KERNEL", "event")
    assert resolve_kernel(cell(5)) == "event"
    assert resolve_kernel(cell(5, kernel="auto")) == "auto"
    for bad in ("bogus", "vector"):
        monkeypatch.setenv("REPRO_KERNEL", bad)
        with pytest.raises(ValueError, match="REPRO_KERNEL"):
            resolve_kernel(cell(5))


def test_scenario_rejects_unknown_kernel():
    assert KERNELS == ("auto", "event")
    for bad in ("numpy", "vector"):
        with pytest.raises(ValueError):
            cell(5, kernel=bad)


def test_dynamic_fallback_preserves_cache_key(monkeypatch):
    """Fallback must never fork cache identity: the cache keys on the static
    resolution, so a lane that dynamically fell back has to produce the exact
    cache key a served lane would (run_shard asserts the same invariant)."""
    import repro.workloads.scenarios as scenarios_module
    from repro.runner.cache import cache_key

    scenario = cell(7, kernel="auto", replications=2, shards=1)
    key_before = cache_key(scenario, check_guarantees=True, trace_level="metrics")

    def forced_fallback(lane_scenarios, **kwargs):
        return [LaneOutcome(fallback="forced by test") for _ in lane_scenarios]

    monkeypatch.setattr(scenarios_module, "run_lanes", forced_fallback)
    outcome = run_shard(scenario, 0, (0, 1))
    assert outcome.provenance.fallback_lanes == 2
    assert outcome.provenance.vector_lanes == 0
    key_after = cache_key(scenario, check_guarantees=True, trace_level="metrics")
    assert key_before == key_after


def test_run_lanes_reports_fallback_without_recording():
    # An out-of-regime lane (the crash instant coincides with a round-1
    # timer) must refuse without touching a recorder, not guess.
    scenario = cell(7, delay="max", attack="crash", spread=0.0, clock="nominal")
    outcomes = run_lanes([scenario, dataclasses.replace(scenario, seed=9)])
    for outcome in outcomes:
        assert (outcome.summary is None) == (outcome.fallback is not None)


@pytest.mark.parametrize(
    "owner, name, scenario",
    [
        (_Layout, "__init__", cell(7, kernel="auto")),
        (_ExactReplay, "run", cell(7, delay="uniform", kernel="auto")),
        (vectorized, "_phase1", cell(7, kernel="auto")),
        (vectorized._LaneAssembly, "record", cell(7, kernel="auto")),
    ],
    ids=["layout", "replay", "phase1", "phase2"],
)
def test_a_defect_in_a_vector_engine_is_served_by_the_event_loop(monkeypatch, owner, name, scenario):
    """Never a wrong answer, never a dead sweep -- and never a silent one."""

    def broken(*args, **kwargs):
        raise UnboundLocalError("planted by the test")

    monkeypatch.setattr(owner, name, broken)
    monkeypatch.setattr(vectorized, "_last_layout", (None, None))  # so the layout is built

    outcome = run_lanes([scenario])[0]
    assert outcome.summary is None
    assert outcome.fallback.startswith("vector evaluation error: UnboundLocalError")

    obs.enable(trace=False)
    try:
        served = run_scenario(scenario, trace_level="metrics")
        assert obs.registry().counter("kernel.fallback_lanes") == 1
        assert not obs.registry().counter("kernel.vector_lanes")
    finally:
        obs.disable()
    provenance = served.kernel_provenance
    assert provenance.fallback_lanes == 1 and provenance.vector_lanes == 0
    assert provenance.fallback_reasons == ((outcome.fallback, 1),)
    sharded = run_shard(dataclasses.replace(scenario, replications=2, shards=1), 0, (0, 1))
    assert sharded.provenance.fallback_reasons == ((outcome.fallback, 2),)
    monkeypatch.undo()
    event = run_scenario(dataclasses.replace(scenario, kernel="event"), trace_level="metrics")
    assert_results_identical(event, served, name)
