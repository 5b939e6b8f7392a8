"""The hull-bounded window-rate pass is exact, online and offline.

Three layers of evidence:

* property-style: on randomized sample sets (and structured adversarial
  geometries) the hull sweep returns exactly what the quadratic pair scan
  returns -- same floats, not approximately;
* post-hoc: the oracle's ``rate_extremes`` (``tests/oracle.py``) over
  randomized adjustment histories equals the pair scan over the same clock
  samples;
* streaming: the recorder's ``finalize`` hands over its retained samples,
  and ``compact()``'s extremes equal the oracle's, computed from the full
  trace, at both trace levels for randomized scenarios.
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.envelope import window_rate_extremes
from repro.analysis.metrics import steady_state_start
from repro.experiments.common import adversarial_scenario, benign_scenario, default_params
from repro.sim.clocks import FixedRateClock, drifting_clock
from repro.sim.trace import ProcessTrace
from repro.workloads.scenarios import run_scenario

from oracle import _clock_samples, _pairwise_window_extremes, accuracy_summary, rate_extremes


def _random_samples(rng: random.Random, count: int) -> tuple[list[float], list[float]]:
    times: list[float] = []
    t = 0.0
    for _ in range(count):
        t += rng.random() * 2.0
        times.append(t)
        if rng.random() < 0.25:
            times.append(t)  # both sides of a jump share one instant
    values = [rng.uniform(-5.0, 5.0) for _ in times]
    return times, values


@pytest.mark.parametrize("seed", range(40))
def test_hull_pass_equals_pair_scan_on_random_samples(seed: int) -> None:
    rng = random.Random(seed)
    times, values = _random_samples(rng, rng.randint(2, 40))
    span = times[-1] - times[0]
    widths = sorted(set(round(b - a, 12) for a in times for b in times if b > a))
    min_windows = [span / 4.0, span / 2.0, 1e-9, span + 1.0]
    if widths:
        # Exercise the >= boundary with exact pair widths.
        min_windows.append(times[-1] - times[0])
        min_windows.append(widths[len(widths) // 2])
    for min_window in min_windows:
        expected = _pairwise_window_extremes(times, values, min_window)
        got = window_rate_extremes(times, values, min_window)
        assert got == expected, (min_window, times, values)


finite = {"allow_nan": False, "allow_infinity": False}


@st.composite
def jump_samples(draw) -> tuple[list[float], list[float]]:
    """Breakpoint samples as a clock yields them: jumps are before/after pairs at one time.

    Steps, values and jumps come from small grids as often as not, so equal
    times across breakpoints, tied values and zero jumps all show up.
    """
    times: list[float] = []
    values: list[float] = []
    t = 0.0
    for _ in range(draw(st.integers(min_value=1, max_value=20))):
        t += draw(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(min_value=0.0, max_value=2.0, **finite))
        before = draw(st.sampled_from([-1.0, 0.0, 1.0]) | st.floats(min_value=-5.0, max_value=5.0, **finite))
        times.append(t)
        values.append(before)
        if draw(st.booleans()):  # an adjustment: the settled side follows at the same time
            jump = draw(st.sampled_from([0.0, 0.25, -0.25]) | st.floats(min_value=-1.0, max_value=1.0, **finite))
            times.append(t)
            values.append(before + jump)
    return times, values


@given(
    samples=jump_samples(),
    min_window=st.sampled_from([-1.0, 0.0, 0.5]) | st.floats(min_value=-1.0, max_value=10.0, **finite),
)
@settings(max_examples=400, deadline=None)
def test_hull_pass_equals_pair_scan_on_jump_pairs(samples, min_window) -> None:
    """Collapsing an instant to its lowest and highest sample loses no extreme."""
    times, values = samples
    assert window_rate_extremes(times, values, min_window) == _pairwise_window_extremes(times, values, min_window)


def test_hull_pass_on_structured_geometries() -> None:
    cases = [
        # Collinear samples (a fixed-rate clock between adjustments).
        ([0.0, 1.0, 2.0, 3.0], [0.0, 1.5, 3.0, 4.5], 1.0),
        # Sawtooth around a trend (periodic corrections).
        ([0.0, 1.0, 1.0, 2.0, 2.0, 3.0], [0.0, 1.2, 0.9, 2.1, 1.8, 3.0], 1.5),
        # The optimal left endpoint is *not* on the global lower hull (a
        # later, much lower point would pop it) -- only a per-right-endpoint
        # eligibility sweep finds this pair.
        ([0.0, 0.5, 1.5, 2.6, 3.6, 4.0], [0.0, 0.1, 1.2, -5.0, -4.9, -4.8], 1.0),
        # Duplicate instants with distinct values at the window boundary.
        ([0.0, 0.0, 2.0, 2.0], [1.0, -1.0, 0.5, 3.5], 2.0),
    ]
    for times, values, min_window in cases:
        expected = _pairwise_window_extremes(times, values, min_window)
        got = window_rate_extremes(times, values, min_window)
        assert got == expected, (times, values, min_window)


def test_no_eligible_pair_returns_none() -> None:
    assert window_rate_extremes([0.0, 1.0], [0.0, 1.0], 5.0) is None
    assert window_rate_extremes([], [], 1.0) is None
    assert window_rate_extremes([1.0], [2.0], 1e-9) is None


@pytest.mark.parametrize("seed", range(12))
def test_rate_extremes_equals_pair_scan_on_random_adjustment_histories(seed: int) -> None:
    rng = random.Random(1000 + seed)
    if seed % 2:
        clock = drifting_clock(5e-3, offset=rng.uniform(-0.1, 0.1), seed=seed, segment_length=0.7, horizon=25.0)
    else:
        clock = FixedRateClock(rate=1.0 + rng.uniform(-5e-3, 5e-3), offset=rng.uniform(-0.1, 0.1))
    ptrace = ProcessTrace(pid=0, clock=clock)
    t = 0.0
    for _ in range(rng.randint(0, 25)):
        t += rng.random()
        ptrace.record_adjustment(t, rng.uniform(-0.5, 0.5))
    t_end = t + rng.random() + 0.5
    for min_window in (t_end / 4.0, t_end / 2.0, 1e-9):
        samples = _clock_samples(ptrace, 0.0, t_end)
        expected = _pairwise_window_extremes(
            [s[0] for s in samples], [s[1] for s in samples], min_window
        )
        got = rate_extremes(ptrace, 0.0, t_end, min_window)
        if expected is None:
            # Fallback: degenerate to the long-run rate.
            assert got.slowest == got.fastest
        else:
            assert (got.slowest, got.fastest) == expected


@pytest.mark.parametrize("seed", range(6))
def test_streamed_window_rates_equal_full_pipeline_on_random_scenarios(seed: int) -> None:
    rng = random.Random(7000 + seed)
    if seed % 2:
        scenario = benign_scenario(
            default_params(rng.choice([4, 5, 7]), authenticated=True),
            "auth",
            rounds=rng.randint(4, 7),
            seed=rng.randint(0, 10_000),
        )
    else:
        scenario = adversarial_scenario(
            default_params(rng.choice([5, 7]), authenticated=True),
            "auth",
            attack=rng.choice(["eager", "skew_max", "two_faced"]),
            rounds=rng.randint(4, 7),
            seed=rng.randint(0, 10_000),
        )
    full = run_scenario(scenario, trace_level="full")
    fast = run_scenario(scenario, trace_level="metrics")
    assert (full.accuracy is None) == (fast.accuracy is None)
    if full.accuracy is not None:
        trace = full.trace
        expected = accuracy_summary(
            trace, scenario.params.min_rate, scenario.params.max_rate, steady_state_start(trace), trace.end_time
        )
        for result in (full, fast):
            assert result.accuracy.slowest_window_rate == expected.slowest_window_rate
            assert result.accuracy.fastest_window_rate == expected.fastest_window_rate


def test_finalize_retains_samples_and_compact_derives_extremes() -> None:
    from repro.sim.recorder import OnlineMetricsRecorder
    from repro.sim.trace import ResyncEvent

    recorder = OnlineMetricsRecorder(rate_low=0.999, rate_high=1.001)
    for pid in range(3):
        recorder.register_process(pid, FixedRateClock(rate=1.0, offset=0.01 * pid))
    t = 0.0
    for round_ in range(1, 5):
        t += 1.0
        for pid in range(3):
            recorder.on_adjustment(pid, t, 0.001 * round_)
            recorder.on_resync(
                ResyncEvent(pid=pid, round=round_, time=t, logical_before=t, logical_after=t + 0.001)
            )

    class _Stats:
        total_messages = 0
        messages_by_type: dict = {}

    summary = recorder.finalize(5.0, _Stats())
    assert recorder.retained_window_samples() > 0
    assert len(summary.window_samples) == 3
    assert summary.slowest_window_rate is None  # derived by compact()
    final = summary.compact()
    assert final.slowest_window_rate is not None
    assert not math.isnan(final.slowest_window_rate)


@pytest.mark.parametrize("min_window", [0.0, -1.0])
def test_hull_pass_handles_nonpositive_min_window(min_window: float) -> None:
    # The pair scan always skipped zero-width pairs; the hull sweep must too
    # (a min_window <= 0 would otherwise admit the right endpoint itself).
    times = [0.0, 0.0, 1.0, 1.0, 2.0]
    values = [0.0, 1.0, 0.5, 2.0, 1.0]
    expected = _pairwise_window_extremes(times, values, min_window)
    assert window_rate_extremes(times, values, min_window) == expected
    rng = random.Random(99)
    rts, rvs = _random_samples(rng, 25)
    assert window_rate_extremes(rts, rvs, min_window) == _pairwise_window_extremes(rts, rvs, min_window)


def _assert_both_extremes_match_pair_scan(times, values, min_window) -> None:
    expected = _pairwise_window_extremes(times, values, min_window)
    got = window_rate_extremes(times, values, min_window)
    assert expected is not None and got is not None, (times, values, min_window)
    assert got[0] == expected[0], ("slowest", times, values, min_window)
    assert got[1] == expected[1], ("fastest", times, values, min_window)


@pytest.mark.parametrize("seed", range(8))
def test_fused_sweep_on_strictly_descending_values(seed: int) -> None:
    # The slowest rates are the steep negative ones, found through the upper
    # hull, whose mirrored pop test fires whenever the descent steepens.
    rng = random.Random(300 + seed)
    times, _ = _random_samples(rng, rng.randint(3, 30))
    values = sorted((rng.uniform(-5.0, 5.0) for _ in times), reverse=True)
    assert all(a > b for a, b in zip(values, values[1:]))
    span = times[-1] - times[0]
    for min_window in (span / 4.0, span / 2.0, 1e-9):
        _assert_both_extremes_match_pair_scan(times, values, min_window)


def test_fused_sweep_on_equal_time_duplicates_with_equal_values() -> None:
    # A zero-size jump recorded as two samples: neither hull may keep both.
    times = [0.0, 0.0, 1.0, 1.0, 2.0, 3.0, 3.0, 4.0]
    values = [0.0, 0.0, 1.2, 1.2, 1.9, 3.1, 3.1, 4.0]
    for min_window in (1.0, 1.5, 2.0, 1e-9):
        _assert_both_extremes_match_pair_scan(times, values, min_window)


def test_fused_sweep_on_collinear_samples() -> None:
    # Every interior point lies on both hulls' chords and is popped from each.
    times = [0.25 * i for i in range(17)]
    values = [1.0 + 0.75 * t for t in times]
    for min_window in (0.25, 1.0, 4.0):
        _assert_both_extremes_match_pair_scan(times, values, min_window)
    slowest, fastest = window_rate_extremes(times, values, 1.0)
    assert slowest == fastest == 0.75


def test_fused_sweep_at_exact_pair_width() -> None:
    # ``width >= min_window`` admits a pair exactly min_window apart.
    times = [0.0, 0.5, 1.0, 1.5, 2.5, 3.0]
    values = [0.0, 0.9, 0.7, 1.8, 2.2, 3.5]
    widths = sorted({b - a for a in times for b in times if b > a})
    for min_window in widths:
        _assert_both_extremes_match_pair_scan(times, values, min_window)
    # The widest pair alone: both extremes are its rate.
    assert window_rate_extremes(times, values, 3.0) == (3.5 / 3.0, 3.5 / 3.0)


def test_slowest_is_the_negated_pass_bit_for_bit() -> None:
    # A flat clock has zero rate; the slowest extreme is the negated fastest
    # rate of the negated values, so it is -0.0, not +0.0.
    slowest, fastest = window_rate_extremes([0.0, 1.0, 2.0], [5.0, 5.0, 5.0], 1.0)
    assert slowest == fastest == 0.0
    assert math.copysign(1.0, slowest) == -1.0
    assert math.copysign(1.0, fastest) == 1.0
