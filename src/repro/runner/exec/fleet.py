"""The fleet's scheduling policy: a pure, thread-free state machine.

:class:`Fleet` takes every decision a protocol executor
(:class:`~repro.runner.exec.remote.ProtocolExecutor`) makes about its workers
and tasks, and performs none of them.  Its one entry point,
:meth:`Fleet.handle`, takes an event and the current monotonic time and
returns the actions the caller must carry out, in order.  It reads no clock,
starts no thread or process and touches no pipe, so a test drives it with a
scripted schedule and a fake clock (``tests/test_fleet_core.py``).

The fleet never changes size: ``size`` slots, each hosting successive worker
*incarnations* (wids, never reused) through a small state machine
(``docs/architecture.md`` draws it)::

    spawning -> live <-> suspect
       ^         |
       |         v
    (rejoin)   lost --K losses in T--> quarantined --probe ok--> (rejoin)

* **One pending queue.** Every task not on a worker waits in a single FIFO.
  An idle dispatchable worker takes the *oldest* pending task; a task lost
  in flight goes back to the *front*; a late joiner (respawn or quarantine
  probe) becomes dispatchable at its ``hello``, so a spawn against a dead
  host never holds a task.
* **Bounded retries.** A task fails after ``max_attempts`` losses.  A lost
  incarnation never takes work again and wids are never reused, so a retry
  cannot return to the worker that lost it.  A task that *raises* on a live
  worker is resolved, not retried: tasks are pure functions of their
  payload, so the error would repeat.
* **Liveness.** A worker silent for half the heartbeat deadline is marked
  *suspect* and probed; any frame clears the suspicion; silence through the
  whole deadline kills it, and the loss arrives as :data:`Lost` once the
  shell sees the pipe close.
* **Respawn and quarantine.** A lost slot respawns after a capped
  exponential backoff with seeded jitter.  A slot that loses
  ``crash_loop_threshold`` workers within ``crash_loop_window`` seconds is
  quarantined and re-probed on its own growing backoff; the probe spawn's
  ``hello`` rejoins it.  Once *every* slot is quarantined nothing can run,
  so the pending tasks fail, naming the last loss.  The probes go on, and a
  later submit succeeds once one of them says hello.
"""

from __future__ import annotations

import itertools
import random
from collections import deque, namedtuple
from dataclasses import dataclass, field
from typing import Optional

#: Default seconds between worker heartbeat frames.
HEARTBEAT_INTERVAL = 1.0
#: Default multiple of the heartbeat interval after which a silent worker is
#: declared wedged and killed.  Generous: heartbeats come from a dedicated
#: worker thread, so even a busy worker beats on schedule.
HEARTBEAT_TIMEOUT_FACTOR = 30.0
#: Default bound on how many workers one task may be lost on before it fails.
MAX_ATTEMPTS = 3
#: Minimum silence tolerated from a worker that has not completed its
#: handshake yet: interpreter start-up and package import must not trip a
#: tight heartbeat deadline on a loaded machine.
SPAWN_DEADLINE = 30.0
#: Default base delay before a lost worker's slot is respawned; doubles per
#: recent loss on that slot up to :data:`RESPAWN_BACKOFF_CAP`, plus jitter.
RESPAWN_BACKOFF = 0.25
RESPAWN_BACKOFF_CAP = 15.0
#: A slot that loses this many workers within :data:`CRASH_LOOP_WINDOW`
#: seconds is quarantined instead of respawned again.
CRASH_LOOP_THRESHOLD = 3
CRASH_LOOP_WINDOW = 30.0
#: First re-probe delay for a quarantined slot; doubles per failed probe up
#: to :data:`QUARANTINE_BACKOFF_CAP`.
QUARANTINE_BACKOFF = 5.0
QUARANTINE_BACKOFF_CAP = 120.0

# -- events: what the shell saw ----------------------------------------------

#: A new task joins the back of the queue; the first one starts the fleet.
Submit = namedtuple("Submit", "task")
#: The process of incarnation ``wid`` is running / could not be started.
Spawned = namedtuple("Spawned", "wid")
SpawnFailed = namedtuple("SpawnFailed", "wid reason")
#: Incarnation ``wid`` sent ``frame`` (``hello``, ``result`` / ``error`` by
#: task id, ``heartbeat``, ``pong``); any frame proves it alive.
Frame = namedtuple("Frame", "wid frame")
#: The shell did not write task ``task_id`` to ``wid`` after all (cancelled
#: while queued, or the task would not encode).
Unsent = namedtuple("Unsent", "wid task_id")
#: Incarnation ``wid`` is gone: pipe closed, stream corrupt, write failed.
Lost = namedtuple("Lost", "wid reason")
#: Time passed: check deadlines and respawn the slots that are due.
Tick = namedtuple("Tick", "")
#: Tear the fleet down; outstanding tasks fail, the next submit restarts it.
Close = namedtuple("Close", "")

# -- actions: what the shell must do -----------------------------------------

#: Start incarnation ``wid`` in ``slot``; answer :data:`Spawned` or :data:`SpawnFailed`.
Spawn = namedtuple("Spawn", "slot wid born_late")
#: Write ``task`` to worker ``wid``.
Send = namedtuple("Send", "wid task")
#: Send worker ``wid`` a liveness probe.
Probe = namedtuple("Probe", "wid")
#: Kill worker ``wid``'s process; its :data:`Lost` follows.
Kill = namedtuple("Kill", "wid")
#: Complete ``task`` from its ``result`` / ``error`` frame.
Resolve = namedtuple("Resolve", "task frame")
#: Fail ``task`` with an executor failure saying ``message``.
Fail = namedtuple("Fail", "task message")


@dataclass(eq=False, slots=True)
class Task:
    """One submitted unit's scheduling record (the shell subclasses it)."""

    task_id: int
    label: str
    #: How many worker incarnations this task was dispatched to and lost.
    attempts: int = 0


@dataclass(eq=False, slots=True)
class Incarnation:
    """One worker process in one slot, from its spawn to its loss."""

    wid: int
    slot: "Slot"
    born_late: bool
    last_seen: float
    #: May take tasks: an initial worker once its process runs, a late
    #: joiner only after its ``hello``.
    ready: bool = False
    greeted: bool = False
    task: Optional[Task] = None


@dataclass(eq=False, slots=True)
class Slot:
    """One position in the fleet, hosting successive incarnations."""

    index: int
    #: One of: spawning, live, suspect, lost, quarantined.
    state: str = "lost"
    worker: Optional[Incarnation] = None
    #: Times of recent worker losses (the crash-loop window).
    loss_times: deque = field(default_factory=deque)
    #: Consecutive failed quarantine probes (drives the probe backoff).
    probe_failures: int = 0
    #: When the slot may respawn / re-probe; ``None`` while occupied.
    next_attempt: Optional[float] = None


@dataclass(eq=False)
class Fleet:
    """The scheduler's state and every decision over it (see the module docstring).

    Not thread-safe: the caller serializes :meth:`handle` and the queries.
    The counters in :attr:`stats` are cumulative for the lifetime of the
    object, :data:`Close` included.  ``heartbeat_timeout=None`` disables
    the deadline (workers that do not beat).
    """

    size: int
    max_attempts: int = MAX_ATTEMPTS
    heartbeat_timeout: Optional[float] = None
    respawn_backoff: float = RESPAWN_BACKOFF
    respawn_backoff_cap: float = RESPAWN_BACKOFF_CAP
    crash_loop_threshold: int = CRASH_LOOP_THRESHOLD
    crash_loop_window: float = CRASH_LOOP_WINDOW
    quarantine_backoff: float = QUARANTINE_BACKOFF
    quarantine_backoff_cap: float = QUARANTINE_BACKOFF_CAP
    spawn_deadline: float = SPAWN_DEADLINE

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError(f"workers must be positive, got {self.size}")
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be positive, got {self.max_attempts}")
        #: Empty until the first submit and after close.
        self.slots: list[Slot] = []
        #: Every task not on a worker, oldest first.
        self.pending: deque[Task] = deque()
        #: The incarnations between their spawn and their loss, by wid.
        self.incarnations: dict[int, Incarnation] = {}
        self._wids = itertools.count()
        #: Backoff jitter only de-synchronizes respawn stampedes; a fixed
        #: seed keeps runs comparable.
        self._jitter = random.Random(0x5EEDF1EE7)
        self.stats = {
            "tasks": 0,
            "retries": 0,
            "workers_lost": 0,
            "steals": 0,  # one shared queue: nothing to steal; key kept for perfbench
            "respawns": 0,
            "quarantines": 0,
            "joins": 0,
        }

    @property
    def period(self) -> float:
        """How often to deliver :data:`Tick`: fine enough for the heartbeat
        deadline and the respawn backoff, never busier than 50 Hz."""
        candidates = [0.25, max(self.respawn_backoff / 2.0, 0.02)]
        if self.heartbeat_timeout is not None:
            candidates.append(self.heartbeat_timeout / 4.0)
        return max(0.02, min(candidates))

    def live(self) -> list[Incarnation]:
        """The incarnation of every occupied slot, in slot order."""
        return [slot.worker for slot in self.slots if slot.worker is not None]

    def running(self, wid: int) -> Optional[Task]:
        """The task on worker ``wid``, if any."""
        worker = self.incarnations.get(wid)
        return worker.task if worker is not None else None

    def handle(self, event, now: float) -> list:
        """Apply ``event`` at monotonic time ``now``; return the actions to perform, in order."""
        actions: list = []
        match event:
            case Submit(task):
                self.stats["tasks"] += 1
                if not self.slots:
                    self.slots = [Slot(index) for index in range(self.size)]
                    for slot in self.slots:
                        self._spawn(slot, False, now, actions)
                self.pending.append(task)
            case Spawned(wid):
                worker = self.incarnations.get(wid)
                if worker is None:
                    return [Kill(wid)]  # born into a fleet closed meanwhile
                worker.last_seen = now
                if worker.born_late:
                    self.stats["respawns"] += 1
                else:
                    worker.ready = True
            case Frame(wid, frame):
                worker = self.incarnations.get(wid)
                if worker is None:
                    return actions  # the last words of a lost or closed incarnation
                worker.last_seen = now
                slot = worker.slot
                if slot.state == "suspect":
                    slot.state = "live"
                if frame[0] == "hello":
                    worker.ready = worker.greeted = True
                    if slot.state == "spawning":
                        slot.state = "live"
                        slot.probe_failures = 0
                        if worker.born_late:
                            self.stats["joins"] += 1
                elif frame[0] in ("result", "error"):
                    task = self._release(worker, frame[1])
                    if task is not None:
                        actions.append(Resolve(task, frame))
            case Unsent(wid, task_id):
                worker = self.incarnations.get(wid)
                if worker is not None:
                    self._release(worker, task_id)
            case Lost(wid, reason) | SpawnFailed(wid, reason):
                worker = self.incarnations.pop(wid, None)
                if worker is None:
                    return actions
                worker.slot.worker = None
                task = worker.task
                if isinstance(event, Lost):
                    self.stats["workers_lost"] += 1
                if task is not None:
                    task.attempts += 1
                    if task.attempts >= self.max_attempts:
                        message = (
                            f"task {task.label} was lost with {task.attempts} worker(s) "
                            f"(last: slot {worker.slot.index}, {reason}); "
                            f"retry budget of {self.max_attempts} attempts exhausted"
                        )
                        actions.append(Fail(task, message))
                    else:
                        self.pending.appendleft(task)  # a retry is older than anything queued
                self._record_loss(worker.slot, reason, now, actions)
                if task is not None and self.pending and self.pending[0] is task:
                    self.stats["retries"] += 1  # still queued: neither exhausted nor doomed
            case Tick():
                for slot in self.slots:
                    worker = slot.worker
                    if worker is None:
                        if slot.next_attempt is not None and slot.next_attempt <= now:
                            self._spawn(slot, True, now, actions)
                    elif self.heartbeat_timeout is not None:
                        self._check_silence(worker, now, actions)
                return actions
            case Close():
                running = [worker.task for worker in self.incarnations.values() if worker.task is not None]
                for task in [*self.pending, *running]:
                    actions.append(Fail(task, f"executor closed with task {task.label} outstanding"))
                self.pending.clear()
                self.incarnations.clear()
                self.slots = []
                return actions
            case _:
                raise TypeError(f"not a fleet event: {event!r}")
        self._dispatch(actions)
        return actions

    def _spawn(self, slot: Slot, born_late: bool, now: float, actions: list) -> None:
        worker = Incarnation(next(self._wids), slot, born_late, now)
        self.incarnations[worker.wid] = worker
        slot.worker = worker
        slot.state = "spawning"
        slot.next_attempt = None
        actions.append(Spawn(slot.index, worker.wid, born_late))

    def _release(self, worker: Incarnation, task_id: int) -> Optional[Task]:
        """Free ``worker`` of task ``task_id``; ``None`` if it no longer holds that task."""
        task = worker.task
        if task is None or task.task_id != task_id:
            return None
        worker.task = None
        return task

    def _check_silence(self, worker: Incarnation, now: float, actions: list) -> None:
        # Before its hello a worker is still paying interpreter start-up;
        # only the post-hello deadline is tight.
        deadline = self.heartbeat_timeout if worker.greeted else max(self.heartbeat_timeout, self.spawn_deadline)
        silence = now - worker.last_seen
        if silence > deadline:
            actions.append(Kill(worker.wid))
        elif worker.greeted and silence > deadline / 2.0 and worker.slot.state == "live":
            # A probed suspect either answers (any frame clears the state) or
            # stays silent until the full deadline kills it.
            worker.slot.state = "suspect"
            actions.append(Probe(worker.wid))

    def _record_loss(self, slot: Slot, reason: str, now: float, actions: list) -> None:
        """Schedule ``slot``'s respawn or quarantine probe; fail the queue if no slot can run it."""
        slot.loss_times.append(now)
        while now - slot.loss_times[0] > self.crash_loop_window:
            slot.loss_times.popleft()
        recent = len(slot.loss_times)
        if recent >= self.crash_loop_threshold:
            if slot.probe_failures == 0:
                # Entering quarantine; a failed probe passes through
                # ``spawning`` and back without being a new quarantine.
                self.stats["quarantines"] += 1
            slot.state = "quarantined"
            slot.probe_failures += 1
            delay = min(self.quarantine_backoff_cap, self.quarantine_backoff * 2.0 ** (slot.probe_failures - 1))
        else:
            slot.state = "lost"
            delay = min(self.respawn_backoff_cap, self.respawn_backoff * 2.0 ** (recent - 1))
        slot.next_attempt = now + delay + self._jitter.uniform(0.0, delay / 2.0)
        if any(s.state != "quarantined" for s in self.slots):
            return
        why = f"all {len(self.slots)} fleet slots are quarantined (last loss: slot {slot.index}, {reason})"
        for task in self.pending:
            actions.append(Fail(task, f"cannot run task {task.label}: {why}; probes continue"))
        self.pending.clear()

    def _dispatch(self, actions: list) -> None:
        """Hand each idle dispatchable worker the oldest pending task."""
        for slot in self.slots:
            if not self.pending:
                return
            worker = slot.worker
            if worker is not None and worker.ready and worker.task is None:
                worker.task = self.pending.popleft()
                actions.append(Send(worker.wid, worker.task))
