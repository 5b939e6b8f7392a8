"""Unit tests for the pluggable instrumentation layer (sim/recorder.py)."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.serialize import trace_to_dict
from repro.crypto.signatures import digest_cache_info, message_digest, sign
from repro.experiments.common import benign_scenario, default_params
from repro.sim.clocks import FixedRateClock
from repro.sim.engine import Simulation
from repro.sim.network import FixedDelay
from repro.sim.process import Process
from repro.sim.recorder import (
    FullTraceRecorder,
    MessageSample,
    OnlineMetricsRecorder,
    Recorder,
    RecorderError,
    merge_summaries,
)
from repro.sim.trace import ResyncEvent
from repro.workloads.scenarios import build_cluster


def make_sim(recorder=None, delay=0.005, tdel=0.01, seed=0):
    return Simulation(tmin=0.0, tdel=tdel, delay_policy=FixedDelay(delay), seed=seed, recorder=recorder)


class Pinger(Process):
    """Sends one broadcast at boot; counts deliveries."""

    def __init__(self, pid):
        super().__init__(pid)
        self.received = []

    def on_start(self):
        self.broadcast(("ping", self.pid))

    def on_message(self, sender, payload):
        self.received.append((sender, payload))


# -- engine regression ---------------------------------------------------------


def test_run_until_resets_stale_stop_flag():
    """An early stop in one run segment must not leak into the next one.

    Regression: ``_stopped`` used to survive an early-stopped segment, so the
    following ``run_until`` still reported ``stopped_early``.
    """
    scenario = benign_scenario(default_params(4, authenticated=True), "auth", rounds=2, seed=1)
    sim = build_cluster(scenario, trace_level="full").sim
    t_end = scenario.horizon()
    sim.run_until_round(1, t_max=t_end)
    assert sim.stopped_early
    assert sim.now < t_end

    trace = sim.run_until(t_end)
    assert not sim.stopped_early
    assert sim.now == t_end
    assert trace.end_time == t_end


def test_run_until_after_run_until_round_resumes_like_one_straight_run():
    """``run_until`` after an early-stopped ``run_until_round`` fires exactly the
    events, and leaves exactly the clock, flag and trace, of one ``run_until``."""
    scenario = benign_scenario(default_params(4, authenticated=True), "auth", rounds=3, seed=5)
    t_end = scenario.horizon()
    resumed = build_cluster(scenario, trace_level="full").sim
    resumed.run_until_round(2, t_max=t_end)
    assert resumed.stopped_early and resumed.events_fired > 0
    trace = resumed.run_until(t_end)

    straight = build_cluster(scenario, trace_level="full").sim
    reference = straight.run_until(t_end)
    assert resumed.events_fired == straight.events_fired
    assert resumed.now == straight.now == t_end
    assert not resumed.stopped_early and not straight.stopped_early
    assert trace_to_dict(trace) == trace_to_dict(reference)


# -- recorder protocol ---------------------------------------------------------


class _SpyRecorder(FullTraceRecorder):
    def __init__(self):
        super().__init__()
        self.messages = []
        self.crashes = []

    def on_message(self, envelope):
        self.messages.append((envelope.sender, envelope.dest, envelope.payload))

    def on_crash(self, pid, time):
        self.crashes.append((pid, time))
        super().on_crash(pid, time)


def test_network_and_halt_emit_into_recorder():
    spy = _SpyRecorder()
    sim = make_sim(recorder=spy)
    a = sim.add_process(Pinger(0), FixedRateClock())
    sim.add_process(Pinger(1), FixedRateClock())
    sim.run_until(0.1)
    assert (0, 1, ("ping", 0)) in spy.messages
    assert (1, 0, ("ping", 1)) in spy.messages
    assert len(spy.messages) == sim.network.stats.total_messages

    a.halt()
    assert spy.crashes == [(0, sim.now)]
    assert a.trace.crashed_at == sim.now


def test_default_recorder_is_full_trace():
    sim = make_sim()
    assert isinstance(sim.recorder, Recorder)
    sim.add_process(Pinger(0), FixedRateClock())
    trace = sim.run_until(0.5)
    assert sim.trace is trace
    assert 0 in trace.processes


# -- online metrics recorder ----------------------------------------------------


def test_metrics_recorder_refuses_trace_access():
    recorder = OnlineMetricsRecorder()
    sim = make_sim(recorder=recorder)
    proc = sim.add_process(Pinger(0), FixedRateClock())
    with pytest.raises(RecorderError):
        _ = sim.trace
    with pytest.raises(RecorderError):
        _ = proc.trace


def test_metrics_recorder_rejects_late_registration():
    recorder = OnlineMetricsRecorder()
    clock = FixedRateClock()
    recorder.register_process(0, clock)
    recorder.on_resync(ResyncEvent(pid=0, round=1, time=1.0, logical_before=1.0, logical_after=1.0))
    with pytest.raises(RecorderError):
        recorder.register_process(1, clock)


def test_metrics_recorder_rejects_duplicate_pid():
    recorder = OnlineMetricsRecorder()
    recorder.register_process(0, FixedRateClock())
    with pytest.raises(ValueError):
        recorder.register_process(0, FixedRateClock())


def test_metrics_recorder_single_segment_contract():
    """Finalize is idempotent at one end time; resumed runs need full traces."""
    recorder = OnlineMetricsRecorder()
    sim = make_sim(recorder=recorder)
    sim.add_process(Pinger(0), FixedRateClock())
    summary = sim.run_until(1.0)
    assert sim.run_until(1.0) is summary  # same segment: cached summary
    with pytest.raises(RecorderError):
        sim.run_until(2.0)  # a longer resumed segment is not supported


def test_metrics_memory_is_independent_of_run_length():
    """The streaming recorder's state does not grow with rounds simulated."""
    footprints = {}
    for rounds in (4, 12):
        scenario = benign_scenario(default_params(5, authenticated=True), "auth", rounds=rounds, seed=2)
        handles = build_cluster(scenario, trace_level="metrics")
        handles.sim.run_until_round(scenario.rounds, t_max=scenario.horizon())
        recorder = handles.sim.recorder
        assert isinstance(recorder, OnlineMetricsRecorder)
        footprints[rounds] = recorder.retained_state_size()
    assert footprints[4] == footprints[12]

    # The full trace, by contrast, grows linearly with the number of rounds.
    sizes = {}
    for rounds in (4, 12):
        scenario = benign_scenario(default_params(5, authenticated=True), "auth", rounds=rounds, seed=2)
        handles = build_cluster(scenario, trace_level="full")
        trace = handles.sim.run_until_round(scenario.rounds, t_max=scenario.horizon())
        sizes[rounds] = sum(len(p.resyncs) + len(p.adjustment_times) for p in trace.processes.values())
    assert sizes[12] > 2 * sizes[4]


def test_liveness_replica_matches_semantics():
    from repro.sim.recorder import OnlineMetricsSummary

    def summary_with(triples):
        return OnlineMetricsSummary(
            end_time=1.0,
            steady_start=0.0,
            steady_skew=0.0,
            overall_skew=0.0,
            period_min=float("inf"),
            period_max=0.0,
            period_count=0,
            acceptance_spread=0.0,
            max_adjustment=None,
            max_backward_adjustment=0.0,
            completed_round=0,
            max_round=0,
            liveness_triples=triples,
            slowest_long_run_rate=None,
            fastest_long_run_rate=None,
            slowest_window_rate=None,
            fastest_window_rate=None,
            envelope_a=None,
            envelope_b=None,
            worst_offset_from_real_time=None,
            total_messages=0,
            message_stats={},
        )

    assert not summary_with((None,)).liveness(1)  # never resynchronized
    assert summary_with(((1, 3, None),)).liveness(3)  # contiguous 1..3
    assert not summary_with(((1, 3, None),)).liveness(4)  # short of round 4
    assert not summary_with(((0, 3, 2),)).liveness(3)  # gap at round 2
    assert summary_with(((0, 3, None),)).liveness(3)  # round 0 counts from 1
    assert summary_with(((5, 6, None),)).liveness(3)  # late joiner: needed range empty


# -- completed-round tracking ---------------------------------------------------


_RECORDERS = pytest.mark.parametrize(
    "recorder_cls", [OnlineMetricsRecorder, FullTraceRecorder], ids=lambda cls: cls.__name__
)


def _round_tracking_recorder(recorder_cls, h):
    recorder = recorder_cls()
    for pid in range(h):
        recorder.register_process(pid, FixedRateClock(rate=1.0, offset=0.0))
    recorder.register_process(h, FixedRateClock(rate=1.0, offset=0.0), faulty=True)
    scans = []
    rescan = recorder._rescan_completed

    def counted_rescan():
        scans.append(1)
        rescan()

    recorder._rescan_completed = counted_rescan
    return recorder, scans


def _accept(recorder, pid, round_, time):
    recorder.on_resync(ResyncEvent(
        pid=pid, round=round_, time=time, logical_before=time, logical_after=time
    ))


@_RECORDERS
def test_min_completed_rescans_once_per_round_not_per_acceptance(recorder_cls):
    """The O(h) min is recomputed when the last laggard leaves, not on every acceptance."""
    h, rounds = 9, 12
    recorder, scans = _round_tracking_recorder(recorder_cls, h)
    time = 0.0
    for round_ in range(1, rounds + 1):
        for pid in range(h):
            time += 0.125
            _accept(recorder, (pid + round_) % h, round_, time)
            _accept(recorder, h, round_, time)  # the faulty process never counts
        assert recorder.min_completed_round() == round_
    assert len(scans) <= rounds + 1
    # No recorder takes a process mid-run, so the ledger never resets.
    with pytest.raises(RecorderError, match="after the first recorded event"):
        recorder.register_process(h + 1, FixedRateClock(rate=1.0, offset=0.0))


@_RECORDERS
@given(
    h=st.integers(min_value=1, max_value=5),
    target=st.integers(min_value=1, max_value=6),
    steps=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=4),  # process (mod h)
            st.integers(min_value=1, max_value=3),  # round jump: > 1 skips rounds
            st.integers(min_value=0, max_value=11),  # 0: crash instead of accepting
        ),
        max_size=60,
    ),
)
@settings(max_examples=120, deadline=None)
def test_min_completed_round_equals_brute_force_after_every_event(recorder_cls, h, target, steps):
    """Any acceptance order: skipped rounds, a late first resync, a crash."""
    recorder, scans = _round_tracking_recorder(recorder_cls, h)
    recorder.set_round_target(target)
    levels = [0] * h
    crashed = set()
    reached_at = None
    for tick, (raw_pid, jump, crash) in enumerate(steps, start=1):
        pid = raw_pid % h
        if pid in crashed:
            continue
        if crash == 0:
            crashed.add(pid)
            recorder.on_crash(pid, float(tick))
        else:
            levels[pid] += jump
            _accept(recorder, pid, levels[pid], float(tick))
        if reached_at is None and min(levels) >= target:
            reached_at = float(tick)
        ceiling = min((levels[p] for p in crashed), default=math.inf)
        assert recorder.min_completed_round() == min(levels)
        assert recorder.round_reached_at == reached_at
        assert recorder.crash_ceiling == ceiling
        assert recorder.round_target_unreachable == (reached_at is None and ceiling < target)
    assert len(scans) <= min(levels) + 1


# -- signature digest memoization ----------------------------------------------


def test_message_digest_is_memoized_for_frozen_messages(keystore):
    from repro.core.messages import RoundContent

    message = RoundContent(round=40941)
    before = digest_cache_info()
    first = message_digest(message)
    # Sign + many verifies of the same message: every lookup after the first
    # canonicalisation is a cache hit.
    signature = sign(keystore.secret_key(0), message)
    for _ in range(5):
        assert keystore.verify(signature, message)
    assert message_digest(RoundContent(round=40941)) == first  # equality-keyed
    after = digest_cache_info()
    # One canonicalisation (the miss); sign, five verifies and the
    # equal-but-distinct lookup all hit the memo.
    assert after.misses == before.misses + 1
    assert after.hits == before.hits + 7


def test_message_digest_lists_share_tuple_cache_entries():
    # Lists and tuples have the same canonical form, so they share a digest
    # (and a memo entry).
    assert message_digest(["a", ["b", 1]]) == message_digest(("a", ("b", 1)))


def test_message_digest_rejects_unsupported_types_despite_memo():
    with pytest.raises(TypeError):
        message_digest({"a": 1})  # unsupported leaf: same error as uncached


def test_message_digest_cache_distinguishes_equal_but_distinct_values():
    """Python equality conflates 1 == 1.0 == True and 0.0 == -0.0; the memo key must not."""
    assert message_digest((1, 2)) != message_digest((1.0, 2))
    assert message_digest((1, 2)) != message_digest((True, 2))
    assert message_digest((0,)) != message_digest((False,))
    assert message_digest((0.0,)) != message_digest((-0.0,))
    # And the memoized digests still match the uncached canonical hashes.
    from repro.crypto.signatures import _compute_digest

    for message in ((1, 2), (1.0, 2), (True, 2), (0.0,), (-0.0,)):
        assert message_digest(message) == _compute_digest(message)


# -- sampling message trace (sample_messages=K) ----------------------------------------


def _metrics_summary(scenario, sample_messages=None):
    handles = build_cluster(scenario, trace_level="metrics", sample_messages=sample_messages)
    return handles.sim.run_until_round(scenario.rounds, t_max=scenario.horizon())


def test_message_sampling_retains_every_kth_envelope():
    scenario = benign_scenario(default_params(5, authenticated=True), "auth", rounds=4)
    period = 10
    summary = _metrics_summary(scenario, sample_messages=period)
    assert summary.message_samples is not None
    # Message i is retained iff i % K == 0: exactly ceil(total / K) samples.
    expected = -(-summary.total_messages // period)
    assert len(summary.message_samples) == expected
    for sample in summary.message_samples:
        assert isinstance(sample, MessageSample)
        assert sample.deliver_time >= sample.send_time
        assert sample.kind  # the payload class name, never the payload
    ids = [sample.msg_id for sample in summary.message_samples]
    assert ids == sorted(ids)  # send order


def test_message_sampling_off_by_default_and_validated():
    scenario = benign_scenario(default_params(5, authenticated=True), "auth", rounds=3)
    assert _metrics_summary(scenario).message_samples is None
    with pytest.raises(ValueError, match="sample_messages"):
        OnlineMetricsRecorder(sample_messages=0)
    # A full-trace run streams like a metrics run, samples included.
    full = build_cluster(scenario, trace_level="full", sample_messages=4).sim
    full.run_until_round(scenario.rounds, t_max=scenario.horizon())
    assert full.recorder.summary().message_samples == _metrics_summary(scenario, sample_messages=4).message_samples


def test_message_sampling_never_perturbs_metrics():
    scenario = benign_scenario(default_params(5, authenticated=True), "auth", rounds=4)
    plain = _metrics_summary(scenario)
    sampled = _metrics_summary(scenario, sample_messages=3)
    import dataclasses

    assert dataclasses.replace(sampled, message_samples=None) == plain


def test_message_samples_concatenate_under_merge():
    base = benign_scenario(default_params(5, authenticated=True), "auth", rounds=3)
    import dataclasses as dc

    first = _metrics_summary(base, sample_messages=5)
    second = _metrics_summary(dc.replace(base, seed=7, name=""), sample_messages=5)
    merged = merge_summaries([first, second])
    assert merged.message_samples == first.message_samples + second.message_samples
    # A group without samples contributes nothing but does not erase the rest.
    third = _metrics_summary(dc.replace(base, seed=9, name=""))
    mixed = merge_summaries([first, third])
    assert mixed.message_samples == first.message_samples
    assert merge_summaries([third, _metrics_summary(dc.replace(base, seed=11, name=""))]).message_samples is None


def test_message_sampling_memory_is_bounded_by_rate():
    scenario = benign_scenario(default_params(5, authenticated=True), "auth", rounds=4)
    handles = build_cluster(scenario, trace_level="metrics", sample_messages=1000000)
    summary = handles.sim.run_until_round(scenario.rounds, t_max=scenario.horizon())
    recorder = handles.sim.recorder
    assert recorder.retained_message_samples() == 1  # just message 0
    assert len(summary.message_samples) == 1


def test_scenario_level_message_sampling_flows_into_result():
    from repro.workloads.scenarios import run_scenario

    import dataclasses as dc

    base = benign_scenario(default_params(5, authenticated=True), "auth", rounds=3)
    plain = run_scenario(base, trace_level="metrics")
    assert plain.message_samples is None  # off by default

    sampled_scenario = dc.replace(base, sample_messages=5, name="")
    sampled = run_scenario(sampled_scenario, trace_level="metrics")
    assert sampled.message_samples is not None
    assert len(sampled.message_samples) == -(-sampled.total_messages // 5)
    # Sampling never perturbs the measured values.
    assert sampled.precision == plain.precision
    assert sampled.total_messages == plain.total_messages

    # Replicated + sharded: samples concatenate over all replications.
    replicated = dc.replace(base, sample_messages=5, replications=3, shards=2, name="")
    merged = run_scenario(replicated, trace_level="metrics")
    per_rep = [
        run_scenario(dc.replace(base, sample_messages=5, seed=base.seed + r, name=""), trace_level="metrics")
        for r in range(3)
    ]
    expected = tuple(sample for result in per_rep for sample in result.message_samples)
    assert merged.message_samples == expected

    # A full-trace run samples the same messages and keeps its trace.
    traced = run_scenario(sampled_scenario, trace_level="full")
    assert traced.trace is not None
    assert traced.message_samples == sampled.message_samples


def test_message_samples_round_trip_serialization():
    import dataclasses as dc
    import json

    from repro.analysis.serialize import result_to_json
    from repro.workloads.scenarios import run_scenario

    scenario = dc.replace(
        benign_scenario(default_params(5, authenticated=True), "auth", rounds=3), sample_messages=10, name=""
    )
    result = run_scenario(scenario, trace_level="metrics")
    data = json.loads(result_to_json(result))
    assert data["scenario"]["sample_messages"] == 10
    assert len(data["message_samples"]) == len(result.message_samples)
    assert data["message_samples"][0][1] == result.message_samples[0].sender
