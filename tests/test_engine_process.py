"""Unit tests for the simulation engine and the process framework."""

from __future__ import annotations

import pytest

from repro.sim.clocks import FixedRateClock
from repro.sim.engine import Simulation
from repro.sim.network import FixedDelay
from repro.sim.process import Process


class Recorder(Process):
    """Process that records everything that happens to it."""

    def __init__(self, pid):
        super().__init__(pid)
        self.events = []

    def on_start(self):
        self.events.append(("start", self.real_time, self.local_time()))

    def on_message(self, sender, payload):
        self.events.append(("msg", self.real_time, sender, payload))

    def on_timer(self, key):
        self.events.append(("timer", self.real_time, self.local_time(), key))


def make_sim(delay=0.005, tdel=0.01):
    return Simulation(tmin=0.0, tdel=tdel, delay_policy=FixedDelay(delay), seed=0)


# -- engine -----------------------------------------------------------------------


def test_schedule_at_executes_in_order():
    sim = make_sim()
    order = []
    sim.schedule_at(2.0, lambda: order.append("b"))
    sim.schedule_at(1.0, lambda: order.append("a"))
    sim.run_until(3.0)
    assert order == ["a", "b"]
    assert sim.now == 3.0


def test_schedule_after_uses_current_time():
    sim = make_sim()
    times = []
    sim.schedule_at(1.0, lambda: sim.schedule_after(0.5, lambda: times.append(sim.now)))
    sim.run_until(2.0)
    assert times == [pytest.approx(1.5)]


def test_schedule_after_rejects_negative_delay():
    sim = make_sim()
    with pytest.raises(ValueError):
        sim.schedule_after(-1.0, lambda: None)


def test_schedule_in_past_is_clamped_to_now():
    sim = make_sim()
    fired = []
    sim.schedule_at(1.0, lambda: sim.schedule_at(0.5, lambda: fired.append(sim.now)))
    sim.run_until(2.0)
    assert fired == [pytest.approx(1.0)]


def test_run_until_cannot_go_backwards():
    sim = make_sim()
    sim.run_until(1.0)
    with pytest.raises(ValueError):
        sim.run_until(0.5)


def test_cancel_scheduled_event():
    sim = make_sim()
    fired = []
    event = sim.schedule_at(1.0, lambda: fired.append(1))
    sim.cancel(event)
    sim.run_until(2.0)
    assert fired == []


def test_step_returns_false_on_empty_queue():
    sim = make_sim()
    assert sim.step() is False


@pytest.mark.parametrize(
    "advance",
    [
        lambda sim: sim.step(),
        lambda sim: sim.run_until(2.0),
        lambda sim: sim.run_until_round(1, t_max=2.0),
    ],
    ids=["step", "run_until", "run_until_round"],
)
def test_event_below_now_is_refused_on_every_loop(advance):
    sim = make_sim()
    sim.run_until(1.0)
    sim.queue.push(0.5, lambda: None)  # behind schedule_at's back
    with pytest.raises(RuntimeError, match="in the past"):
        advance(sim)


def test_run_until_and_step_fire_the_same_sequence():
    def drive(advance):
        sim = make_sim()
        fired = []
        for i, t in enumerate([0.3, 0.1, 0.3, 0.2, 0.1]):
            sim.schedule_at(t, lambda i=i: fired.append((sim.now, i)))
        cancelled = sim.schedule_at(0.2, lambda: fired.append("cancelled"))
        sim.cancel(cancelled)
        advance(sim)
        return fired

    def by_step(sim):
        while sim.step():
            pass

    expected = [(0.1, 1), (0.1, 4), (0.2, 3), (0.3, 0), (0.3, 2)]
    assert drive(by_step) == expected
    assert drive(lambda sim: sim.run_until(1.0)) == expected


def test_duplicate_process_id_rejected():
    sim = make_sim()
    sim.add_process(Recorder(0), FixedRateClock())
    with pytest.raises(ValueError):
        sim.add_process(Recorder(0), FixedRateClock())


def test_boot_time_delays_on_start():
    sim = make_sim()
    proc = Recorder(1)
    sim.add_process(proc, FixedRateClock(offset=2.0), boot_time=0.5)
    sim.run_until(1.0)
    assert proc.events[0] == ("start", pytest.approx(0.5), pytest.approx(2.5))


def test_honest_and_faulty_process_lists():
    sim = make_sim()
    honest = Recorder(0)
    faulty = Recorder(1)
    sim.add_process(honest, FixedRateClock())
    sim.add_process(faulty, FixedRateClock(), faulty=True)
    assert sim.honest_processes() == [honest]
    assert sim.faulty_processes() == [faulty]
    assert sim.trace.honest_pids() == [0]
    assert sim.trace.faulty_pids() == [1]


def test_run_until_round_stops_early():
    sim = make_sim()

    class Resyncer(Process):
        def on_start(self):
            self.set_timer_local(1.0, key="go")

        def on_timer(self, key):
            from repro.sim.trace import ResyncEvent

            # Progress must be reported through the recorder seam (as real
            # algorithms do via record_resync): the engine's round tracking
            # observes recorder emissions, not direct trace mutation.
            self.record_resync(
                ResyncEvent(pid=self.pid, round=1, time=self.sim.now, logical_before=1.0, logical_after=1.0)
            )

    sim.add_process(Resyncer(0), FixedRateClock())
    trace = sim.run_until_round(1, t_max=100.0)
    assert sim.stopped_early
    assert trace.end_time == pytest.approx(1.0)


def test_trace_records_end_time_and_messages():
    sim = make_sim()
    a, b = Recorder(0), Recorder(1)
    sim.add_process(a, FixedRateClock())
    sim.add_process(b, FixedRateClock())
    sim.schedule_at(0.1, lambda: a.send(1, "hi"))
    trace = sim.run_until(1.0)
    assert trace.end_time == 1.0
    assert trace.total_messages == 1
    assert trace.message_stats == {"str": 1}


# -- process framework ----------------------------------------------------------------


def test_local_timer_fires_at_local_target():
    sim = make_sim()
    proc = Recorder(0)
    sim.add_process(proc, FixedRateClock(rate=2.0, offset=1.0))
    sim.schedule_at(0.0, lambda: proc.set_timer_local(3.0, key="t"))
    sim.run_until(5.0)
    timer_events = [e for e in proc.events if e[0] == "timer"]
    assert len(timer_events) == 1
    # local 3.0 with H(t) = 1 + 2t is reached at t = 1.0
    assert timer_events[0][1] == pytest.approx(1.0)
    assert timer_events[0][2] == pytest.approx(3.0)
    assert timer_events[0][3] == "t"


def test_timer_in_the_past_fires_immediately():
    sim = make_sim()
    proc = Recorder(0)
    sim.add_process(proc, FixedRateClock(offset=10.0))
    sim.schedule_at(0.5, lambda: proc.set_timer_local(3.0, key="late"))
    sim.run_until(1.0)
    timer_events = [e for e in proc.events if e[0] == "timer"]
    assert timer_events[0][1] == pytest.approx(0.5)


def test_cancelled_timer_does_not_fire():
    sim = make_sim()
    proc = Recorder(0)
    sim.add_process(proc, FixedRateClock())

    def arm_and_cancel():
        timer = proc.set_timer_local(1.0, key="x")
        proc.cancel_timer(timer)

    sim.schedule_at(0.0, arm_and_cancel)
    sim.run_until(2.0)
    assert [e for e in proc.events if e[0] == "timer"] == []


def test_send_and_receive_between_processes():
    sim = make_sim(delay=0.004)
    a, b = Recorder(0), Recorder(1)
    sim.add_process(a, FixedRateClock())
    sim.add_process(b, FixedRateClock())
    sim.schedule_at(0.1, lambda: a.send(1, {"k": 1}))
    sim.run_until(1.0)
    msgs = [e for e in b.events if e[0] == "msg"]
    assert msgs == [("msg", pytest.approx(0.104), 0, {"k": 1})]


def test_broadcast_reaches_all_other_processes():
    sim = make_sim()
    procs = [Recorder(i) for i in range(4)]
    for p in procs:
        sim.add_process(p, FixedRateClock())
    sim.schedule_at(0.0, lambda: procs[0].broadcast("hello"))
    sim.run_until(1.0)
    assert [e for e in procs[0].events if e[0] == "msg"] == []
    for p in procs[1:]:
        assert len([e for e in p.events if e[0] == "msg"]) == 1


def test_halt_stops_timers_and_messages():
    sim = make_sim()
    a, b = Recorder(0), Recorder(1)
    sim.add_process(a, FixedRateClock())
    sim.add_process(b, FixedRateClock())
    sim.schedule_at(0.0, lambda: b.set_timer_local(0.5, key="x"))
    sim.schedule_at(0.1, b.halt)
    sim.schedule_at(0.2, lambda: a.send(1, "ignored"))
    sim.schedule_at(0.3, lambda: b.send(0, "not sent"))
    sim.run_until(1.0)
    assert [e for e in b.events if e[0] in ("timer", "msg")] == []
    assert [e for e in a.events if e[0] == "msg"] == []
    assert b.trace.crashed_at == pytest.approx(0.1)


def test_messages_before_start_are_dropped():
    sim = make_sim(delay=0.001)
    a = Recorder(0)
    late = Recorder(1)
    sim.add_process(a, FixedRateClock())
    sim.add_process(late, FixedRateClock(), boot_time=0.5)
    sim.schedule_at(0.0, lambda: a.send(1, "too early"))
    sim.schedule_at(0.6, lambda: a.send(1, "after boot"))
    sim.run_until(1.0)
    msgs = [e[3] for e in late.events if e[0] == "msg"]
    assert msgs == ["after boot"]


def test_peers_and_other_peers():
    sim = make_sim()
    procs = [Recorder(i) for i in range(3)]
    for p in procs:
        sim.add_process(p, FixedRateClock())
    assert procs[0].peers() == [0, 1, 2]
    assert procs[0].other_peers() == [1, 2]


def test_unbound_process_raises():
    proc = Recorder(9)
    with pytest.raises(RuntimeError):
        _ = proc.sim
    with pytest.raises(RuntimeError):
        _ = proc.clock
    with pytest.raises(RuntimeError):
        _ = proc.network
    with pytest.raises(RuntimeError):
        _ = proc.trace


# -- past-time scheduling is never silent -----------------------------------------


def test_schedule_at_past_time_is_clamped_and_noted():
    sim = make_sim()
    fired = []
    sim.schedule_at(1.0, lambda: sim.schedule_at(0.25, lambda: fired.append(sim.now)))
    sim.run_until(2.0)
    # The action still runs (clamped to the scheduling instant)...
    assert fired == [1.0]
    # ...but the clamp is on the record, not swallowed.
    assert any("schedule_at" in note and "clamped" in note for note in sim.trace.notes)


def test_schedule_at_past_time_raises_under_strict_scheduling():
    sim = Simulation(tmin=0.0, tdel=0.01, delay_policy=FixedDelay(0.005), seed=0, strict_scheduling=True)
    sim.schedule_at(1.0, lambda: sim.schedule_at(0.25, lambda: None))
    with pytest.raises(ValueError, match="in the past"):
        sim.run_until(2.0)


def test_schedule_at_present_time_is_not_noted():
    sim = make_sim()
    sim.schedule_at(1.0, lambda: sim.schedule_at(1.0, lambda: None))
    sim.run_until(2.0)
    assert sim.trace.notes == []
