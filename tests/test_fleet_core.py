"""The fleet's scheduling core, driven without a single process.

:class:`repro.runner.exec.fleet.Fleet` is a pure state machine, so these
tests play the shell themselves: they feed it events on a fake clock and
check every action it returns against the scheduler's invariants --

* every task resolves (or fails) exactly once;
* an idle dispatchable worker takes the oldest pending task, and a late
  joiner only after its hello;
* a task lost in flight goes back to the front, and never to the wid that
  lost it;
* no slot leaks: a slot holds at most one live incarnation;
* an all-quarantined fleet fails its queue.

Scripted schedules pin the named paths and their messages; a seeded random
schedule and a Hypothesis state machine interleave every event in any order.
"""

from __future__ import annotations

import random
from collections import Counter, defaultdict

import pytest
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, precondition, rule

from repro.runner.exec.fleet import (
    Close,
    Fail,
    Fleet,
    Frame,
    Kill,
    Lost,
    Probe,
    Resolve,
    Send,
    Spawn,
    Spawned,
    SpawnFailed,
    Submit,
    Task,
    Tick,
    Unsent,
)

#: A fast policy: a 2 s heartbeat deadline (5 s before hello), quarantine on
#: the third loss within 10 s.
POLICY = dict(
    heartbeat_timeout=2.0,
    respawn_backoff=0.1,
    respawn_backoff_cap=1.0,
    crash_loop_threshold=3,
    crash_loop_window=10.0,
    quarantine_backoff=1.0,
    quarantine_backoff_cap=4.0,
    spawn_deadline=5.0,
)


def _states(core: Fleet) -> list[str]:
    return [slot.state for slot in core.slots]


# -- scripted schedules ----------------------------------------------------------------


def test_initial_workers_take_work_at_spawn_and_late_joiners_at_hello():
    core = Fleet(2, **POLICY)
    t0, t1, t2 = (Task(i, f"#{i}") for i in range(3))
    assert core.handle(Submit(t0), 0.0) == [Spawn(0, 0, False), Spawn(1, 1, False)]
    # The initial fleet is dispatchable as soon as its processes run: the
    # task frame waits in the pipe while the interpreter starts.
    assert core.handle(Spawned(0), 0.1) == [Send(0, t0)]
    assert core.handle(Spawned(1), 0.1) == []
    assert core.handle(Submit(t1), 0.2) == [Send(1, t1)]
    assert core.handle(Submit(t2), 0.2) == []  # both busy: t2 waits
    assert core.handle(Frame(0, ("hello", 100)), 0.3) == []
    assert _states(core) == ["live", "spawning"]
    # Worker 0 dies with t0 in flight: t0 goes back to the *front*.
    assert core.handle(Lost(0, "worker process exited"), 0.4) == []
    assert list(core.pending) == [t0, t2] and core.stats["retries"] == 1
    assert core.handle(Tick(), 0.45) == []  # slot 0's respawn backoff runs
    # Worker 1 finishes t1 and takes the oldest pending task: the retry.
    assert core.handle(Frame(1, ("result", 1, "v1")), 0.5) == [Resolve(t1, ("result", 1, "v1")), Send(1, t0)]
    # The replacement is born late and takes nothing until its hello.
    assert core.handle(Tick(), 0.6) == [Spawn(0, 2, True)]
    assert core.handle(Spawned(2), 0.7) == []
    assert core.handle(Frame(2, ("hello", 102)), 0.8) == [Send(2, t2)]
    assert core.stats == dict(core.stats, tasks=3, workers_lost=1, respawns=1, joins=1, retries=1)
    # A result frame about a task the worker no longer holds is ignored.
    assert core.handle(Frame(2, ("result", 1, "stale")), 0.9) == []


def test_silent_worker_is_probed_then_killed():
    core = Fleet(1, **POLICY)
    task = Task(0, "#0")
    core.handle(Submit(task), 0.0)
    core.handle(Spawned(0), 0.0)
    # Before its hello a worker gets the spawn deadline (5 s), not 2 s.
    assert core.handle(Tick(), 4.0) == []
    assert core.handle(Frame(0, ("hello", 100)), 4.0) == []
    # Silent for half the deadline: suspect, probed once.
    assert core.handle(Tick(), 5.1) == [Probe(0)] and _states(core) == ["suspect"]
    assert core.handle(Tick(), 5.5) == []
    # Any frame clears the suspicion.
    core.handle(Frame(0, ("pong", 100)), 5.6)
    assert _states(core) == ["live"]
    # Silent through the whole deadline: killed; the loss follows the EOF.
    assert core.handle(Tick(), 6.7) == [Probe(0)]
    assert core.handle(Tick(), 7.7) == [Kill(0)]
    assert core.handle(Lost(0, "worker process exited"), 7.8) == []
    assert core.pending[0] is task and task.attempts == 1


def test_retry_budget_exhaustion_fails_the_task():
    core = Fleet(1, max_attempts=2, **POLICY)
    task = Task(0, "#0 (exit_task)")
    core.handle(Submit(task), 0.0)
    core.handle(Spawned(0), 0.0)
    assert core.handle(Lost(0, "worker process exited"), 0.1) == []
    core.handle(Tick(), 0.3)
    core.handle(Spawned(1), 0.3)
    assert core.handle(Frame(1, ("hello", 101)), 0.4) == [Send(1, task)]
    (fail,) = core.handle(Lost(1, "worker process exited"), 0.5)
    assert fail == Fail(
        task,
        "task #0 (exit_task) was lost with 2 worker(s) (last: slot 0, worker process exited); "
        "retry budget of 2 attempts exhausted",
    )
    assert core.stats["retries"] == 1 and not core.pending


def test_all_quarantined_fleet_fails_its_queue_and_probes_go_on():
    core = Fleet(1, **POLICY)
    first = Task(0, "#0")
    assert core.handle(Submit(first), 0.0) == [Spawn(0, 0, False)]
    assert core.handle(SpawnFailed(0, "spawn failed: OSError: no host"), 0.0) == []
    assert _states(core) == ["lost"]
    core.handle(Tick(), 1.0)
    core.handle(Spawned(1), 1.0)
    assert core.handle(Lost(1, "worker process exited"), 1.1) == []
    core.handle(Tick(), 2.0)
    core.handle(Spawned(2), 2.0)
    # The third loss within the window quarantines the only slot: nothing
    # can run, so the queue fails instead of waiting forever.
    assert core.handle(Lost(2, "worker process exited"), 2.1) == [
        Fail(
            first,
            "cannot run task #0: all 1 fleet slots are quarantined "
            "(last loss: slot 0, worker process exited); probes continue",
        )
    ]
    assert _states(core) == ["quarantined"] and core.stats["quarantines"] == 1
    # A task submitted to the dead fleet waits for the next probe...
    second = Task(1, "#1")
    assert core.handle(Submit(second), 2.2) == []
    assert core.handle(Tick(), 3.0) == []  # the probe backoff has not elapsed
    assert core.handle(Tick(), 4.0) == [Spawn(0, 3, True)]
    core.handle(Spawned(3), 4.0)
    # ... and fails when the probe fails, without counting a new quarantine.
    (fail,) = core.handle(Lost(3, "worker process exited"), 4.1)
    assert fail.task is second and core.stats["quarantines"] == 1
    # A probe that says hello rejoins the slot and serves the next submit.
    core.handle(Tick(), 20.0)
    core.handle(Spawned(4), 20.0)
    core.handle(Frame(4, ("hello", 104)), 20.1)
    assert _states(core) == ["live"] and core.stats["joins"] == 1
    third = Task(2, "#2")
    assert core.handle(Submit(third), 20.2) == [Send(4, third)]


def test_close_fails_outstanding_tasks_and_ignores_the_old_fleet():
    core = Fleet(2, **POLICY)
    tasks = [Task(i, f"#{i}") for i in range(3)]
    for task in tasks:
        core.handle(Submit(task), 0.0)
    core.handle(Spawned(0), 0.0)  # slot 1's spawn is still in flight
    assert core.handle(Close(), 0.1) == [
        Fail(tasks[1], "executor closed with task #1 outstanding"),
        Fail(tasks[2], "executor closed with task #2 outstanding"),
        Fail(tasks[0], "executor closed with task #0 outstanding"),
    ]
    assert core.slots == [] and not core.pending
    # The old incarnations' last words change nothing; a spawn that lands
    # after the close is killed at once.
    assert core.handle(Frame(0, ("result", 0, "late")), 0.2) == []
    assert core.handle(Lost(0, "worker process exited"), 0.2) == []
    assert core.handle(Spawned(1), 0.2) == [Kill(1)]
    # The next submit restarts the fleet with fresh wids; counters carry on.
    assert core.handle(Submit(Task(3, "#3")), 0.3) == [Spawn(0, 2, False), Spawn(1, 3, False)]
    assert core.stats["tasks"] == 4 and core.stats["workers_lost"] == 0


def test_unsent_task_frees_its_worker_for_the_next_one():
    core = Fleet(1, **POLICY)
    cancelled, queued = Task(0, "#0"), Task(1, "#1")
    core.handle(Submit(cancelled), 0.0)
    core.handle(Submit(queued), 0.0)
    assert core.handle(Spawned(0), 0.0) == [Send(0, cancelled)]
    assert core.handle(Unsent(0, 0), 0.1) == [Send(0, queued)]


def test_non_events_are_rejected():
    with pytest.raises(TypeError, match="not a fleet event"):
        Fleet(1).handle(("tick",), 0.0)
    with pytest.raises(ValueError, match="workers must be positive"):
        Fleet(0)


# -- the invariants, under any interleaving ---------------------------------------------


class _Shell:
    """Plays the executor shell around a :class:`Fleet`: performs its actions
    on a fake clock and checks every invariant after every event.

    Each event method takes an index ``i`` that picks its subject among the
    candidates (and does nothing when there is none), so a seeded RNG and
    Hypothesis can drive the same methods.
    """

    def __init__(self, size: int, **policy) -> None:
        self.core = Fleet(size, **dict(POLICY, **policy))
        self.now = 0.0
        self.tasks: list[Task] = []
        self.outcomes: Counter = Counter()
        #: The pending FIFO as the invariants say it must be, oldest first.
        self.queue: list[int] = []
        #: wid -> slot of spawns not yet answered / processes not yet lost.
        self.spawning: dict[int, int] = {}
        self.procs: dict[int, int] = {}
        self.late: set[int] = set()
        self.greeted: set[int] = set()
        #: wid -> id of the task sent to it.
        self.on: dict[int, int] = {}
        self.lost_on: defaultdict = defaultdict(set)
        #: Spawns still in flight when the fleet closed.
        self.orphans: set[int] = set()
        self.sender: int = -1

    @staticmethod
    def _pick(pool, i: int):
        pool = sorted(pool)
        return pool[i % len(pool)] if pool else None

    def _handle(self, event) -> None:
        for action in self.core.handle(event, self.now):
            self._perform(action)
        self._check(loss=type(event) in (Lost, SpawnFailed))

    def _perform(self, action) -> None:
        match action:
            case Spawn(slot, wid, born_late):
                assert slot not in {*self.spawning.values(), *self.procs.values()}, "slot leak"
                self.spawning[wid] = slot
                if born_late:
                    self.late.add(wid)
            case Send(wid, task):
                assert wid in self.procs and wid not in self.on, "sent to a dead or busy worker"
                assert wid in self.greeted or wid not in self.late, "late joiner dispatched before hello"
                assert wid not in self.lost_on[task.task_id], "retried on the wid that lost it"
                assert self.queue[0] == task.task_id, "not the oldest pending task"
                self.on[wid] = self.queue.pop(0)
            case Resolve(task, frame):
                assert frame[1] == task.task_id == self.on.pop(self.sender)
                self.outcomes[task.task_id] += 1
            case Fail(task, _message):
                if task.task_id in self.queue:
                    self.queue.remove(task.task_id)
                else:  # failed in flight by close()
                    (wid,) = [w for w, t in self.on.items() if t == task.task_id]
                    del self.on[wid]
                self.outcomes[task.task_id] += 1
            case Probe(wid):
                assert wid in self.procs and wid in self.greeted
            case Kill(wid):
                assert wid in self.procs or wid in self.spawning
            case _:
                raise AssertionError(f"unknown action {action!r}")

    def _check(self, loss: bool) -> None:
        core = self.core
        assert [task.task_id for task in core.pending] == self.queue
        assert set(self.outcomes.values()) <= {1}, "a task resolved twice"
        running, done = set(self.on.values()), set(self.outcomes)
        assert len(running) + len(self.queue) + len(done) == len(self.tasks)
        assert running.isdisjoint(self.queue) and done.isdisjoint(running) and done.isdisjoint(self.queue)
        if core.pending:  # work-conserving: nobody idles while a task waits
            assert all(worker.task is not None or not worker.ready for worker in core.live())
        if loss and core.slots and all(slot.state == "quarantined" for slot in core.slots):
            # A task submitted afterwards waits for the next probe instead.
            assert not core.pending, "a loss quarantined the last slot and the queue stayed"
        alive = {**self.spawning, **self.procs}
        for slot in core.slots:
            held = [wid for wid, index in alive.items() if index == slot.index]
            assert held == ([slot.worker.wid] if slot.worker is not None else []), "slot leak"

    # -- events -------------------------------------------------------------------------

    def submit(self, i: int) -> None:
        task = Task(len(self.tasks), f"#{len(self.tasks)}")
        self.tasks.append(task)
        self.queue.append(task.task_id)
        self._handle(Submit(task))

    def spawned(self, i: int) -> None:
        wid = self._pick(self.spawning.keys() | self.orphans, i)
        if wid in self.orphans:
            self.orphans.discard(wid)
            assert self.core.handle(Spawned(wid), self.now) == [Kill(wid)]
        elif wid is not None:
            self.procs[wid] = self.spawning.pop(wid)
            self._handle(Spawned(wid))

    def spawn_failed(self, i: int) -> None:
        wid = self._pick(self.spawning, i)
        if wid is not None:
            del self.spawning[wid]
            self._handle(SpawnFailed(wid, "spawn failed: OSError: no host"))

    def frame(self, i: int) -> None:
        """One frame from a running worker: hello, a result, an error, a stale result, a heartbeat."""
        wid = self._pick(self.procs, i)
        if wid is None:
            return
        held = self.on.get(wid)
        kind = i % 5
        if kind == 0:
            self.greeted.add(wid)
            frame = ("hello", 1000 + wid)
        elif kind in (1, 2) and held is not None:
            frame = ("result" if kind == 1 else "error", held, None)
        elif kind == 3:
            frame = ("result", len(self.tasks) if held is None else held + 1, None)  # not the task it holds
        else:
            frame = ("heartbeat",)
        self.sender = wid
        self._handle(Frame(wid, frame))

    def lose(self, i: int) -> None:
        wid = self._pick(self.procs, i)
        if wid is None:
            return
        del self.procs[wid]
        task_id = self.on.pop(wid, None)
        if task_id is not None:
            self.lost_on[task_id].add(wid)
            self.queue.insert(0, task_id)  # back to the front, unless it fails now
        self._handle(Lost(wid, "worker process exited"))

    def unsent(self, i: int) -> None:
        wid = self._pick(self.on, i)
        if wid is not None:
            task_id = self.on.pop(wid)
            self.outcomes[task_id] += 1  # the shell settled the future itself
            self._handle(Unsent(wid, task_id))

    def advance(self, i: int) -> None:
        self.now += (0.05, 0.3, 1.2, 3.0, 9.0)[i % 5]
        self._handle(Tick())

    def close(self, i: int = 0) -> None:
        old = list(self.procs)
        self._handle(Close())
        assert not self.queue and not self.on
        self.orphans |= self.spawning.keys()
        self.spawning.clear()
        self.procs.clear()
        for wid in old:  # their readers report the EOF of the teardown
            assert self.core.handle(Lost(wid, "worker process exited"), self.now) == []

    def finish(self) -> None:
        """Close the fleet: now every task submitted must have settled exactly once."""
        self.close()
        assert sorted(self.outcomes) == list(range(len(self.tasks)))


_EVENTS = ("submit", "spawned", "spawn_failed", "frame", "lose", "unsent", "advance", "close")


@pytest.mark.parametrize("seed", range(6))
def test_seeded_schedule_keeps_every_invariant(seed):
    rng = random.Random(seed)
    shell = _Shell(rng.randint(1, 3), max_attempts=rng.randint(1, 3), crash_loop_threshold=rng.randint(1, 3))
    weights = (3, 3, 1, 6, 2, 1, 3, 0.2)
    for name in rng.choices(_EVENTS, weights, k=600):
        getattr(shell, name)(rng.randrange(1000))
    shell.finish()
    assert shell.core.stats["tasks"] == len(shell.tasks)


class FleetMachine(RuleBasedStateMachine):
    """Hypothesis interleaves the shell's events in any order."""

    @initialize(size=st.integers(1, 3), max_attempts=st.integers(1, 3), threshold=st.integers(1, 3))
    def start(self, size, max_attempts, threshold):
        self.shell = _Shell(size, max_attempts=max_attempts, crash_loop_threshold=threshold)

    @rule(i=st.integers(0, 9))
    def submit(self, i):
        self.shell.submit(i)

    @precondition(lambda self: self.shell.spawning or self.shell.orphans)
    @rule(i=st.integers(0, 9))
    def spawned(self, i):
        self.shell.spawned(i)

    @precondition(lambda self: self.shell.spawning)
    @rule(i=st.integers(0, 9))
    def spawn_failed(self, i):
        self.shell.spawn_failed(i)

    @precondition(lambda self: self.shell.procs)
    @rule(i=st.integers(0, 9))
    def frame(self, i):
        self.shell.frame(i)

    @precondition(lambda self: self.shell.procs)
    @rule(i=st.integers(0, 9))
    def lose(self, i):
        self.shell.lose(i)

    @precondition(lambda self: self.shell.on)
    @rule(i=st.integers(0, 9))
    def unsent(self, i):
        self.shell.unsent(i)

    @rule(i=st.integers(0, 9))
    def advance(self, i):
        self.shell.advance(i)

    @rule()
    def close(self):
        self.shell.close()

    def teardown(self):
        if hasattr(self, "shell"):
            self.shell.finish()


TestFleetMachine = FleetMachine.TestCase
