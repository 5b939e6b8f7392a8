"""Unit tests for the network and delay policies."""

from __future__ import annotations

import random

import pytest

from repro.core.messages import InitMessage
from repro.sim.clocks import FixedRateClock
from repro.sim.engine import Simulation
from repro.sim.network import (
    Envelope,
    FixedDelay,
    FunctionDelay,
    MaxDelay,
    MinDelay,
    TargetedDelay,
    UniformDelay,
)
from repro.sim.process import Process


class Collector:
    """Minimal delivery sink recording (time, sender, payload)."""

    def __init__(self, sim):
        self.sim = sim
        self.received = []

    def __call__(self, envelope):
        self.received.append((self.sim.now, envelope.sender, envelope.payload))


def make_net(policy, tmin=0.0, tdel=0.01, seed=0):
    sim = Simulation(tmin=tmin, tdel=tdel, delay_policy=policy, seed=seed)
    sinks = {pid: Collector(sim) for pid in range(3)}
    for pid, sink in sinks.items():
        sim.network.register(pid, sink)
    return sim, sinks


def test_fixed_delay_delivery_time():
    sim, sinks = make_net(FixedDelay(0.004))
    sim.network.send(0, 1, "hello")
    sim.run_until(1.0)
    assert sinks[1].received == [(pytest.approx(0.004), 0, "hello")]


def test_max_delay_clamped_to_tdel():
    sim, sinks = make_net(MaxDelay(), tdel=0.02)
    sim.network.send(0, 1, "x")
    sim.run_until(1.0)
    assert sinks[1].received[0][0] == pytest.approx(0.02)


def test_min_delay_clamped_to_tmin():
    sim, sinks = make_net(MinDelay(), tmin=0.003, tdel=0.02)
    sim.network.send(0, 1, "x")
    sim.run_until(1.0)
    assert sinks[1].received[0][0] == pytest.approx(0.003)


def test_uniform_delay_within_bounds():
    sim, sinks = make_net(UniformDelay(), tmin=0.002, tdel=0.01, seed=5)
    for _ in range(50):
        sim.network.send(0, 1, "x")
    sim.run_until(1.0)
    times = [t for t, _, _ in sinks[1].received]
    assert len(times) == 50
    assert all(0.002 - 1e-12 <= t <= 0.01 + 1e-12 for t in times)
    assert len(set(times)) > 1  # actually random


def test_targeted_delay_favours_fast_group():
    sim, sinks = make_net(TargetedDelay(fast_destinations=[1]), tmin=0.001, tdel=0.01)
    sim.network.send(0, 1, "fast")
    sim.network.send(0, 2, "slow")
    sim.run_until(1.0)
    assert sinks[1].received[0][0] == pytest.approx(0.001)
    assert sinks[2].received[0][0] == pytest.approx(0.01)


def test_function_delay_policy():
    policy = FunctionDelay(lambda s, d, p, t, rng: 0.007)
    sim, sinks = make_net(policy)
    sim.network.send(0, 2, "x")
    sim.run_until(1.0)
    assert sinks[2].received[0][0] == pytest.approx(0.007)


def test_explicit_delay_is_clamped():
    sim, sinks = make_net(FixedDelay(0.005), tmin=0.002, tdel=0.01)
    sim.network.send(0, 1, "early", delay=0.0)
    sim.network.send(0, 1, "late", delay=5.0)
    sim.run_until(1.0)
    times = sorted(t for t, _, _ in sinks[1].received)
    assert times[0] == pytest.approx(0.002)
    assert times[1] == pytest.approx(0.01)


def test_broadcast_excludes_sender_by_default():
    sim, sinks = make_net(FixedDelay(0.001))
    sim.network.broadcast(0, "msg")
    sim.run_until(1.0)
    assert len(sinks[0].received) == 0
    assert len(sinks[1].received) == 1
    assert len(sinks[2].received) == 1


def test_broadcast_can_include_sender():
    sim, sinks = make_net(FixedDelay(0.001))
    sim.network.broadcast(0, "msg", include_self=True)
    sim.run_until(1.0)
    assert len(sinks[0].received) == 1


def test_multicast_targets_only_listed():
    sim, sinks = make_net(FixedDelay(0.001))
    sim.network.multicast(0, [2], "msg")
    sim.run_until(1.0)
    assert len(sinks[1].received) == 0
    assert len(sinks[2].received) == 1


def test_unregister_stops_delivery():
    # It stops messages sent after it; one already in flight keeps its handler.
    sim, sinks = make_net(FixedDelay(0.001))
    sim.network.send(0, 1, "in flight")
    sim.network.unregister(1)
    sim.network.send(0, 1, "x")
    assert len(sim.queue) == 2  # one delivery event per message either way
    sim.run_until(1.0)
    assert [payload for _, _, payload in sinks[1].received] == ["in flight"]


class Inbox(Process):
    """A process that keeps every payload delivered to it."""

    def __init__(self, pid):
        super().__init__(pid)
        self.received = []

    def on_message(self, sender, payload):
        self.received.append(payload)


def test_drop_deliveries_to_models_crash():
    # A crash is Process.halt: deliveries already in flight to the halted
    # process still reach its handler, which ignores them.
    sim = Simulation(delay_policy=FixedDelay(0.004))
    inboxes = [sim.add_process(Inbox(pid), FixedRateClock()) for pid in range(3)]
    sim.run_until(0.0)  # every process booted
    sim.network.broadcast(0, "in flight")
    sim.schedule_at(0.002, inboxes[2].halt)
    sim.run_until(0.003)
    sim.network.broadcast(0, "after the crash")
    sim.run_until(1.0)
    assert inboxes[1].received == ["in flight", "after the crash"]
    assert inboxes[2].received == [] and inboxes[2].halted
    assert sim.network.participants() == [0, 1, 2]  # still registered: halting is the crash


def test_stats_count_messages_by_sender_and_type():
    sim, sinks = make_net(FixedDelay(0.001))
    sim.network.send(0, 1, "a")
    sim.network.send(0, 2, "b")
    sim.network.send(1, 2, 42)
    assert sim.network.stats.total_messages == 3
    assert sim.network.stats.messages_by_sender[0] == 2
    assert sim.network.stats.messages_by_sender[1] == 1
    assert sim.network.stats.messages_by_type["str"] == 2
    assert sim.network.stats.messages_by_type["int"] == 1


def test_envelope_records_send_and_deliver_times():
    sim, _ = make_net(FixedDelay(0.004))
    env = sim.network.send(0, 1, "x")
    assert env.send_time == 0.0
    assert env.deliver_time == pytest.approx(0.004)
    assert env.sender == 0 and env.dest == 1


def test_network_rejects_bad_bounds():
    with pytest.raises(ValueError):
        Simulation(tmin=0.02, tdel=0.01)
    with pytest.raises(ValueError):
        Simulation(tmin=0.0, tdel=0.0)


def test_delay_policy_nan_rejected():
    sim, _ = make_net(FunctionDelay(lambda s, d, p, t, rng: float("nan")))
    with pytest.raises(ValueError):
        sim.network.send(0, 1, "x")


def test_explicit_nan_delay_rejected_like_a_policy_nan():
    # max(tmin, nan) is tmin: the per-message path used to deliver this at tmin.
    sim, _ = make_net(FixedDelay(0.004), tmin=0.001)
    with pytest.raises(ValueError):
        sim.network.send(0, 1, "x", delay=float("nan"))
    assert sim.network.stats.total_messages == 0 and len(sim.queue) == 0


def test_policy_reassigned_after_construction_is_honoured_by_next_send():
    sim, _ = make_net(UniformDelay(), tmin=0.002, tdel=0.01, seed=5)
    network = sim.network
    mirror = random.Random(5 + 1)  # the network's own stream
    assert network.send(0, 1, "x").deliver_time == 0.002 + mirror.random() * (0.01 - 0.002)
    network.policy = TargetedDelay(fast_destinations=[1])  # clamped, not scaled
    assert network.send(0, 1, "x").deliver_time == 0.002
    assert network.send(0, 2, "x").deliver_time == 0.01
    network.policy = UniformDelay()  # and back: scaled again, the stream continues
    assert network.send(0, 1, "x").deliver_time == 0.002 + mirror.random() * (0.01 - 0.002)
    network.policy = FunctionDelay(lambda s, d, p, t, rng: float("nan"))
    with pytest.raises(ValueError):
        network.send(0, 1, "x")


def test_broadcast_after_unregister_skips_removed_pid():
    sim, sinks = make_net(FixedDelay(0.001))
    assert [env.dest for env in sim.network.broadcast(0, "a")] == [1, 2]
    sim.network.unregister(1)
    assert [env.dest for env in sim.network.broadcast(0, "b")] == [2]
    assert sim.network.participants() == [0, 2]
    sim.network.register(1, sinks[1])
    assert [env.dest for env in sim.network.broadcast(0, "c")] == [1, 2]
    sim.run_until(1.0)
    assert [payload for _, _, payload in sinks[1].received] == ["a", "c"]


def test_uniform_delay_deterministic_per_seed():
    def delivery_times(seed):
        sim, sinks = make_net(UniformDelay(), seed=seed)
        for _ in range(10):
            sim.network.send(0, 1, "x")
        sim.run_until(1.0)
        return [t for t, _, _ in sinks[1].received]

    assert delivery_times(3) == delivery_times(3)
    assert delivery_times(3) != delivery_times(4)


@pytest.mark.parametrize("count", [1, 2, 24, 97])
@pytest.mark.parametrize("seed", [0, 1, 7, 2**31 + 5])
def test_getrandbits_is_the_same_stream_as_repeated_random(seed, count):
    """What the vector replay's unread-traffic rule rests on (needs no NumPy).

    ``random()`` consumes two 32-bit generator outputs and ``getrandbits(64 *
    m)`` exactly ``2m`` of them, little-endian: one call advances the stream
    as ``m`` draws do, and every draw can still be decoded from the integer.
    """
    from repro.sim.vectorized import _unread_delay

    drawn, advanced = random.Random(seed), random.Random(seed)
    draws = [drawn.random() for _ in range(count)]
    bits = advanced.getrandbits(64 * count)
    assert [_unread_delay(bits, p, 0.0, 1.0) for p in range(count)] == draws
    assert [_unread_delay(bits, p, 0.002, 0.01) for p in range(count)] == [
        0.002 + draw * (0.01 - 0.002) for draw in draws
    ]
    assert advanced.random() == drawn.random()
    assert advanced.getstate() == drawn.getstate()


def test_participants_sorted():
    sim, _ = make_net(FixedDelay(0.001))
    assert sim.network.participants() == [0, 1, 2]


# -- the emit core: one path under send, broadcast and multicast ---------------------------


def test_multicast_accepts_a_one_shot_iterable():
    sim, sinks = make_net(FixedDelay(0.001))
    envelopes = sim.network.multicast(0, (pid for pid in (2, 1, 2)), "msg")
    assert [env.dest for env in envelopes] == [2, 1, 2]  # caller's order, duplicates kept
    assert sim.network.stats.total_messages == 3
    sim.run_until(1.0)
    assert len(sinks[1].received) == 1 and len(sinks[2].received) == 2


def test_empty_multicast_leaves_the_stats_untouched():
    sim, _ = make_net(FixedDelay(0.001))
    assert sim.network.multicast(0, [], "msg") == []
    assert sim.network.stats.total_messages == 0
    assert sim.network.stats.messages_by_sender == {} and sim.network.stats.messages_by_type == {}


def test_broadcast_including_self_keeps_sorted_pid_order():
    sim = Simulation(delay_policy=FixedDelay(0.001))
    for pid in (5, 1, 3):
        sim.network.register(pid, lambda envelope: None)
    assert [env.dest for env in sim.network.broadcast(3, "msg", include_self=True)] == [1, 3, 5]
    assert [env.dest for env in sim.network.broadcast(3, "msg")] == [1, 5]


def test_stats_are_bumped_once_per_call_with_the_call_total():
    sim, _ = make_net(FixedDelay(0.001))
    sim.network.broadcast(0, "a", include_self=True)
    sim.network.multicast(1, [0, 2], 7)
    stats = sim.network.stats
    assert stats.total_messages == 5
    assert stats.messages_by_sender == {0: 3, 1: 2}
    assert stats.messages_by_type == {"str": 3, "int": 2}


def test_envelope_is_immutable_and_compares_by_value():
    sim, _ = make_net(FixedDelay(0.004))
    env = sim.network.send(0, 1, "x")
    assert isinstance(env, Envelope)
    with pytest.raises(AttributeError):
        env.dest = 1
    with pytest.raises(AttributeError):
        env.extra = 1
    twin = Envelope(env.msg_id, 0, 1, "x", env.send_time, env.deliver_time)
    assert env == twin and hash(env) == hash(twin) and len({env, twin}) == 1
    assert env != twin._replace(dest=2)
    assert env._fields == ("msg_id", "sender", "dest", "payload", "send_time", "deliver_time")


class Recording:
    """A recorder stand-in that keeps every envelope the network shows it."""

    def __init__(self):
        self.seen = []

    def on_message(self, envelope):
        self.seen.append(envelope)


def test_pruned_messages_keep_their_id_draw_count_and_recorder_call():
    sim, sinks = make_net(UniformDelay(), tmin=0.002, tdel=0.01, seed=5)
    network = sim.network
    network.recorder, network._records_messages = Recording(), True
    mirror = random.Random(5 + 1)
    network.publish_floor(1, 3)  # pid 1 ignores rounds below 3; pid 2 published nothing
    sent = []
    for round_ in (2, 3, 1):
        sent += network.broadcast(0, InitMessage(round=round_))
    sent.append(network.send(0, 1, "no round attribute"))

    assert [env.msg_id for env in sent] == list(range(7))  # strictly increasing, no gaps
    assert network.recorder.seen == sent
    assert [env.deliver_time for env in sent] == [0.002 + mirror.random() * 0.008 for _ in sent]
    assert network.stats.total_messages == 7 and network.stats.messages_by_type == {"InitMessage": 6, "str": 1}
    assert network.pruned == 2 and len(sim.queue) == 5
    sim.run_until(1.0)
    to_one = [payload for _, _, payload in sinks[1].received]
    assert "no round attribute" in to_one
    assert [payload.round for payload in to_one if isinstance(payload, InitMessage)] == [3]
    assert sorted(payload.round for _, _, payload in sinks[2].received) == [1, 2, 3]


def test_a_nan_mid_broadcast_still_counts_every_message_it_issued():
    # Destinations 1 and 2 get their msg_id, recorder call and delivery event
    # before the policy fails on 3: the stats must not lose them.
    policy = FunctionDelay(lambda s, dest, p, t, rng: float("nan") if dest == 3 else 0.003)
    sim = Simulation(delay_policy=policy)
    received = []
    for pid in range(5):
        sim.network.register(pid, received.append)
    network = sim.network
    network.recorder, network._records_messages = Recording(), True
    network.publish_floor(1, 4)  # so one of the two is a pruned message
    with pytest.raises(ValueError):
        network.broadcast(0, InitMessage(round=2))
    stats = network.stats
    assert stats.total_messages == 2 and network.pruned == 1 and len(sim.queue) == 1
    assert stats.messages_by_sender == {0: 2} and stats.messages_by_type == {"InitMessage": 2}
    assert [env.msg_id for env in network.recorder.seen] == [0, 1]
    network.policy = FixedDelay(0.003)
    assert network.send(0, 4, "next").msg_id == 2 and stats.total_messages == 3  # ids issued == messages counted
    sim.run_until(1.0)
    assert [env.dest for env in received] == [2, 4]
