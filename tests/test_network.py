"""Unit tests for the network and delay policies."""

from __future__ import annotations

import random

import pytest

from repro.sim.engine import Simulation
from repro.sim.network import (
    FixedDelay,
    FunctionDelay,
    MaxDelay,
    MinDelay,
    TargetedDelay,
    UniformDelay,
)


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
    sim, sinks = make_net(FixedDelay(0.001))
    sim.network.unregister(1)
    sim.network.send(0, 1, "x")
    sim.run_until(1.0)
    assert sinks[1].received == []


def test_drop_deliveries_to_models_crash():
    sim, sinks = make_net(FixedDelay(0.001))
    sim.network.drop_deliveries_to(2)
    sim.network.send(0, 2, "x")
    sim.run_until(1.0)
    assert sinks[2].received == []


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


def test_participants_sorted():
    sim, _ = make_net(FixedDelay(0.001))
    assert sim.network.participants() == [0, 1, 2]
