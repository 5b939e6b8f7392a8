"""Remote protocol executors: a self-healing, fixed-size worker fleet.

Both backends here run the length-prefixed pickle protocol of
:mod:`repro.runner.exec.protocol` against long-lived ``repro.worker``
processes; they differ only in how a worker is spawned
(:class:`SubprocessWorkerExecutor`: ``python -m repro.worker`` on this
machine, :class:`SSHExecutor`: the same through ``ssh host ...``).  The
shared scheduler in :class:`ProtocolExecutor` provides the fault tolerance
the local pool never needed:

* **liveness detection** -- a per-worker reader thread sees the pipe EOF the
  instant a worker dies, and a fleet thread enforces a heartbeat deadline
  (workers beat from a daemon thread, so a *wedged* worker -- alive but
  silent -- is detected and killed, not just a dead one).  A worker silent
  for half the deadline is marked *suspect* and sent a ``probe`` frame; any
  frame it produces clears the suspicion.
* **one pending queue** -- every task not on a worker waits in a single
  FIFO, and three rules place it: an idle dispatchable worker takes the
  *oldest* pending task that was not already lost on it; a task lost in
  flight goes back to the *front*; a late joiner dispatches at its
  handshake.  Nothing ever waits behind a busy worker while another idles.
* **bounded retries with worker exclusion** -- a retried chunk never runs on
  the worker *incarnation* that already lost it (each task carries its own
  excluded-incarnation set; a respawned replacement in the same slot is a
  fresh incarnation), and after ``max_attempts`` losses its future fails
  with a clear :class:`~repro.runner.exec.base.ExecutorFailure`.
* **respawn** (``respawn=True``, the default) -- a lost worker's *slot* is
  refilled after a capped exponential backoff with jitter; pending tasks
  just stay queued until a replacement says hello, so a fleet that loses
  every worker recovers.  A slot that loses :attr:`crash_loop_threshold`
  workers within :attr:`crash_loop_window` seconds is **quarantined**: it
  stops thrashing and is re-probed on a growing backoff -- the spawn
  handshake doubles as the probe, so an unreachable SSH host rejoins
  mid-sweep the first time a probe spawn says hello.  When *every* slot is
  quarantined nothing can run, so the pending tasks fail (naming the last
  loss) instead of waiting forever; the probes go on, and a later submit
  succeeds once one of them says hello.

The fleet never changes size: ``workers`` slots, each hosting successive
worker incarnations through a small state machine (documented in
``docs/architecture.md``)::

    spawning -> live <-> suspect
       ^         |
       |         v
    (rejoin)   lost --K losses in T--> quarantined --probe ok--> (rejoin)

Tasks that *raise* on a live worker are not retried: every task in this
system is a deterministic pure function of its payload, so a task error
would simply repeat -- it propagates to the future exactly as the local
pool would propagate it.  Only worker *loss* triggers retry, and because
tasks are pure, a retried chunk returns float-for-float what the first
attempt would have -- recovery is pure throughput, never a result risk.
"""

from __future__ import annotations

import itertools
import os
import random
import shlex
import subprocess
import sys
import threading
import time
from collections import deque
from concurrent.futures import Future, InvalidStateError
from pathlib import Path
from typing import Callable, Optional, Sequence

from ... import obs
from .base import Executor, ExecutorError, ExecutorFailure, RemoteTaskError
from .protocol import encode_frame, read_frame, write_frame

#: Default seconds between worker heartbeat frames.
HEARTBEAT_INTERVAL = 1.0
#: Default multiple of the heartbeat interval after which a silent worker is
#: declared wedged and killed.  Generous: heartbeats come from a dedicated
#: worker thread, so even a busy worker beats on schedule.
HEARTBEAT_TIMEOUT_FACTOR = 30.0
#: Default bound on how many workers one task may be lost on before its
#: future fails.
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


class _Task:
    """One submitted unit: a picklable call plus its retry bookkeeping."""

    __slots__ = (
        "task_id",
        "fn",
        "payload",
        "future",
        "attempts",
        "excluded",
        "started",
        "ctx",
        "span",
        "attempt_span",
        "submitted",
    )

    def __init__(self, task_id: int, fn: Callable, payload) -> None:
        self.task_id = task_id
        self.fn = fn
        self.payload = payload
        self.future: Future = Future()
        #: Worker incarnations (wids) this task was lost on -- never
        #: rescheduled there.  A respawned replacement has a fresh wid, so
        #: a retried chunk is eligible on it.
        self.excluded: set[int] = set()
        #: How many worker incarnations this task was dispatched to and lost.
        self.attempts = 0
        #: Whether the future already transitioned to RUNNING (first
        #: dispatch); a retry redispatch must not transition it again.
        self.started = False
        #: Telemetry: the trace context shipped in this task's frames (None
        #: keeps the 4-element wire format), the parent-side ``exec.task``
        #: span covering submit->complete, the per-dispatch ``exec.attempt``
        #: span, and the submit timestamp for the queue-wait histogram
        #: (zeroed once observed at first dispatch).
        self.ctx: Optional[dict] = None
        self.span = None
        self.attempt_span = None
        self.submitted = 0.0

    @property
    def label(self) -> str:
        name = getattr(self.fn, "__name__", str(self.fn))
        return f"#{self.task_id} ({name})"


class _Worker:
    """Parent-side handle of one protocol worker *incarnation*."""

    __slots__ = (
        "wid",
        "slot",
        "proc",
        "reader",
        "write_lock",
        "alive",
        "current",
        "last_seen",
        "remote_pid",
        "born_late",
        "span",
        "probe_sent",
    )

    def __init__(self, wid: int, slot: "_Slot", proc: subprocess.Popen, born_late: bool) -> None:
        self.wid = wid
        self.slot = slot
        self.proc = proc
        self.reader: Optional[threading.Thread] = None
        self.write_lock = threading.Lock()
        self.alive = True
        self.current: Optional[_Task] = None
        self.last_seen = time.monotonic()
        self.remote_pid: Optional[int] = None
        #: Whether this incarnation joined after the initial fleet spawn
        #: (respawn or quarantine probe).  Late joiners receive work only
        #: after their handshake, so a probe spawn against an unreachable
        #: host never burns a task's retry budget.
        self.born_late = born_late
        #: Telemetry: the ``fleet.worker`` incarnation span (when tracing is
        #: on) and the send time of an outstanding liveness probe, consumed
        #: by the pong handler into the ``fleet.probe_rtt_s`` histogram.
        self.span = None
        self.probe_sent: Optional[float] = None


class _Slot:
    """One position in the fleet, hosting successive worker incarnations."""

    __slots__ = ("index", "state", "worker", "loss_times", "probe_failures", "next_attempt")

    def __init__(self, index: int) -> None:
        self.index = index
        #: One of: spawning, live, suspect, lost, quarantined.
        self.state = "lost"
        self.worker: Optional[_Worker] = None
        #: Monotonic timestamps of recent worker losses (crash-loop window).
        self.loss_times: deque[float] = deque()
        #: Consecutive failed quarantine probes (drives the probe backoff).
        self.probe_failures = 0
        #: When the fleet thread may respawn / re-probe this slot.
        self.next_attempt: Optional[float] = None


def _kill(proc: subprocess.Popen) -> None:
    """SIGKILL ``proc`` (already gone is fine) and reap it."""
    try:
        proc.kill()
    except OSError:
        pass
    proc.wait()


class ProtocolExecutor(Executor):
    """Self-healing scheduler over spawn-command-defined workers.

    Workers spawn lazily on the first submit and persist across sweeps;
    :meth:`close` reaps every process (shutdown frame, then escalating to
    kill) and resets the executor so the next submit respawns -- the same
    lifecycle the local pool backend has.  Scheduler counters
    (:meth:`stats`) are cumulative for the lifetime of the instance: they
    survive :meth:`close` and every respawn cycle, so post-sweep provenance
    is never zeroed by mid-sweep recovery.
    """

    def __init__(
        self,
        workers: int,
        max_attempts: int = MAX_ATTEMPTS,
        heartbeat_interval: float = HEARTBEAT_INTERVAL,
        heartbeat_timeout: Optional[float] = None,
        respawn: bool = True,
        respawn_backoff: float = RESPAWN_BACKOFF,
        respawn_backoff_cap: float = RESPAWN_BACKOFF_CAP,
        crash_loop_threshold: int = CRASH_LOOP_THRESHOLD,
        crash_loop_window: float = CRASH_LOOP_WINDOW,
        quarantine_backoff: float = QUARANTINE_BACKOFF,
        quarantine_backoff_cap: float = QUARANTINE_BACKOFF_CAP,
        spawn_deadline: float = SPAWN_DEADLINE,
        monitor_period: Optional[float] = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be positive, got {workers}")
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be positive, got {max_attempts}")
        self.workers = workers
        self.max_attempts = max_attempts
        self.heartbeat_interval = heartbeat_interval
        if heartbeat_timeout is None and heartbeat_interval > 0:
            heartbeat_timeout = HEARTBEAT_TIMEOUT_FACTOR * heartbeat_interval
        self.heartbeat_timeout = heartbeat_timeout
        self.respawn = respawn
        self.respawn_backoff = respawn_backoff
        self.respawn_backoff_cap = respawn_backoff_cap
        self.crash_loop_threshold = crash_loop_threshold
        self.crash_loop_window = crash_loop_window
        self.quarantine_backoff = quarantine_backoff
        self.quarantine_backoff_cap = quarantine_backoff_cap
        self.spawn_deadline = spawn_deadline
        self.monitor_period = monitor_period
        self._lock = threading.Lock()
        self._slots: list[_Slot] = []
        #: Every task not currently on a worker, oldest first; a task lost in
        #: flight re-enters at the front.
        self._pending: deque[_Task] = deque()
        self._started = False
        self._task_ids = itertools.count()
        self._wids = itertools.count()
        self._fleet_thread: Optional[threading.Thread] = None
        self._fleet_stop = threading.Event()
        #: Backoff jitter only de-synchronizes respawn stampedes; it needs no
        #: reproducibility, but a fixed seed keeps runs comparable.
        self._jitter = random.Random(0x5EEDF1EE7)
        self._stats = {
            "tasks": 0,
            "retries": 0,
            "workers_lost": 0,
            "steals": 0,  # one shared queue: nothing to steal; key kept for perfbench
            "respawns": 0,
            "quarantines": 0,
            "joins": 0,
        }

    # -- spawning ----------------------------------------------------------

    def _spawn_command(self, index: int) -> list[str]:
        raise NotImplementedError

    def _spawn_env(self) -> Optional[dict]:
        return None

    def _spawn_worker(self, slot: _Slot, born_late: bool) -> _Worker:
        proc = subprocess.Popen(
            self._spawn_command(slot.index),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=None,  # workers log to the parent's stderr
            env=self._spawn_env(),
        )
        worker = _Worker(next(self._wids), slot, proc, born_late)
        if obs.enabled():
            # Incarnation spans are timeline roots: a worker outlives any one
            # sweep, so parenting it under a sweep span would break nesting.
            worker.span = obs.tracer().begin("fleet.worker")
            worker.span.parent_id = None
            worker.span.set("slot", slot.index)
            worker.span.set("wid", worker.wid)
            worker.span.set("born_late", born_late)
        worker.reader = threading.Thread(
            target=self._read_loop,
            args=(worker,),
            name=f"repro-exec-reader-{slot.index}.{worker.wid}",
            daemon=True,
        )
        worker.reader.start()
        return worker

    def _ensure_started_locked(self) -> None:
        if self._started:
            return
        self._started = True
        self._fleet_stop = threading.Event()
        self._slots = [_Slot(index) for index in range(self.workers)]
        for slot in self._slots:
            slot.worker = self._spawn_worker(slot, born_late=False)
            slot.state = "spawning"
        self._fleet_thread = threading.Thread(
            target=self._fleet_loop, args=(self._fleet_stop,), name="repro-exec-fleet", daemon=True
        )
        self._fleet_thread.start()

    # -- submission and scheduling -----------------------------------------

    @property
    def worker_count(self) -> int:
        return self.workers

    def submit(self, fn: Callable, payload) -> Future:
        task = _Task(next(self._task_ids), fn, payload)
        ctx = obs.wire_context()
        if ctx is not None:
            task.submitted = time.monotonic()
            if ctx["trace"]:
                # The parent-side task span covers submit -> complete; its
                # ambient parent is whatever span the submitting thread holds
                # (the sweep span), and it becomes the root the worker-side
                # span tree hangs from via the shipped context.
                task.span = obs.tracer().begin("exec.task")
                task.span.set("task_id", task.task_id)
                ctx = dict(ctx, parent=task.span.span_id)
            task.ctx = ctx
        assignments: Sequence[tuple[_Worker, _Task]] = ()
        with self._lock:
            self._ensure_started_locked()
            self._stats["tasks"] += 1
            stranded = not self.respawn and not self._dispatchable_locked()
            if not stranded:
                self._pending.append(task)
                assignments = self._dispatch_locked()
        if stranded:
            self._fail(
                task,
                f"cannot run task {task.label}: no live workers "
                f"({self._stats['workers_lost']} lost, respawn disabled); "
                f"close() resets the backend",
            )
        self._send_assignments(assignments)
        return task.future

    def _live_workers_locked(self) -> list[_Worker]:
        return [
            slot.worker
            for slot in self._slots
            if slot.worker is not None and slot.worker.alive
        ]

    def _dispatchable_locked(self) -> list[_Worker]:
        """Workers that may be assigned tasks right now.

        Late joiners (respawns, probes) only become dispatchable after their
        handshake -- a probe spawn against a dead host must not hold tasks
        hostage until the spawn deadline.
        """
        return [w for w in self._live_workers_locked() if not w.born_late or w.remote_pid is not None]

    def _dispatch_locked(self) -> list[tuple[_Worker, _Task]]:
        """Hand each idle worker the oldest pending task it may run; caller sends outside the lock."""
        assignments: list[tuple[_Worker, _Task]] = []
        if not self._pending:
            return assignments
        for worker in self._dispatchable_locked():
            while worker.current is None:
                task = next((t for t in self._pending if worker.wid not in t.excluded), None)
                if task is None:
                    break
                self._pending.remove(task)
                # A task cancelled while queued is dropped here; try the next one.
                if task.started or task.future.set_running_or_notify_cancel():
                    task.started = True
                    worker.current = task
                    assignments.append((worker, task))
        return assignments

    def _send_assignments(self, assignments: Sequence[tuple[_Worker, _Task]]) -> None:
        for worker, task in assignments:
            try:
                if task.ctx is None:
                    frame = encode_frame(("task", task.task_id, task.fn, task.payload))
                else:
                    frame = encode_frame(("task", task.task_id, task.fn, task.payload, task.ctx))
            except Exception as exc:
                # The *task* cannot be shipped (unpicklable payload, frame
                # over the size limit) -- that is the submitter's error, not
                # the worker's: surface it on the future, free the worker and
                # keep dispatching.  Matches the local pool, which fails the
                # future on a pickling error without killing anything.
                with self._lock:
                    if worker.current is task:
                        worker.current = None
                    redispatch = self._dispatch_locked()
                if task.span is not None:
                    task.span.finish("error")
                try:
                    task.future.set_exception(exc)
                except InvalidStateError:
                    pass
                self._send_assignments(redispatch)
                continue
            if task.ctx is not None:
                if task.submitted:
                    # Queue wait: submit -> first dispatch (retries excluded).
                    obs.observe("fleet.queue_wait_s", time.monotonic() - task.submitted)
                    task.submitted = 0.0
                if task.span is not None and obs.enabled():
                    task.attempt_span = obs.tracer().begin("exec.attempt", parent=task.span.span_id)
                    task.attempt_span.set("slot", worker.slot.index)
                    task.attempt_span.set("wid", worker.wid)
            try:
                with worker.write_lock:
                    worker.proc.stdin.write(frame)
                    worker.proc.stdin.flush()
            except Exception:
                # The pipe died under us; the loss handling puts the task back
                # in the queue and accounts the lost worker.
                self._lose_worker(worker, "write to worker failed")

    # -- completion and loss ------------------------------------------------

    def _ingest_telemetry(self, telemetry: dict) -> None:
        """Fold a worker's shipped spans and metrics into this process's."""
        spans = telemetry.get("spans")
        if spans is not None and obs.enabled():
            obs.tracer().ingest(spans)
        metrics = telemetry.get("metrics")
        if metrics is not None and obs.metrics_enabled():
            obs.registry().absorb(metrics)

    def _complete(self, task: _Task, frame: tuple) -> None:
        ok = frame[0] == "result"
        telemetry = frame[3] if ok and len(frame) > 3 else (frame[4] if not ok and len(frame) > 4 else None)
        if telemetry is not None:
            self._ingest_telemetry(telemetry)
        status = "ok" if ok else "error"
        if task.attempt_span is not None:
            task.attempt_span.finish(status)
            task.attempt_span = None
        if task.span is not None:
            task.span.finish(status)
        try:
            if ok:
                task.future.set_result(frame[2])
            else:
                exc = frame[2]
                name, message, trace = frame[3]
                if exc is None:
                    exc = RemoteTaskError(f"task {task.label} raised {name}: {message}\n{trace}")
                elif trace:
                    # The worker-side traceback would otherwise be lost the
                    # moment the exception pickles: attach it so a remote
                    # failure is debuggable without re-running serially.
                    if hasattr(exc, "add_note"):
                        exc.add_note(f"remote worker traceback ({task.label}):\n{trace}")
                    else:  # Python 3.10: no PEP 678 notes
                        exc.remote_traceback = trace
                task.future.set_exception(exc)
        except InvalidStateError:
            pass  # cancelled in flight; nobody is waiting for this result

    def _fail(self, task: _Task, message: str) -> None:
        """Fail a task's future.  Never call while holding the scheduler lock:
        ``set_exception`` runs done-callbacks synchronously, and a callback
        (the chaos harness, a waiting sweep) may re-enter the executor."""
        if task.attempt_span is not None:
            task.attempt_span.finish("lost")
            task.attempt_span = None
        if task.span is not None:
            task.span.finish("error")
        try:
            task.future.set_exception(ExecutorFailure(message))
        except InvalidStateError:
            pass

    def _read_loop(self, worker: _Worker) -> None:
        stream = worker.proc.stdout
        reason = "worker process exited"
        while True:
            try:
                frame = read_frame(stream)
            except Exception as exc:
                # Corrupt or truncated stream (e.g. something polluted the
                # remote stdout): keep the diagnostic -- 'exited' and 'stream
                # desynced' need very different fixes on a real deployment.
                reason = f"worker stream failed: {type(exc).__name__}: {exc}"
                frame = None
            if frame is None:
                break
            tag = frame[0]
            task = None
            assignments: list = []
            probe_rtt: Optional[float] = None
            with self._lock:
                worker.last_seen = time.monotonic()
                slot = worker.slot
                if worker.alive and slot.state == "suspect":
                    slot.state = "live"  # any frame clears the suspicion
                if worker.probe_sent is not None and tag != "heartbeat":
                    # Any main-loop frame answers the probe; the heartbeat
                    # thread keeps beating even on a wedged worker, so it
                    # proves nothing about the loop we probed.
                    probe_rtt = time.monotonic() - worker.probe_sent
                    worker.probe_sent = None
                if tag == "hello":
                    worker.remote_pid = frame[1]
                    if worker.span is not None:
                        worker.span.set("remote_pid", frame[1])
                        worker.span.event("hello")
                    if worker.alive and slot.state == "spawning":
                        slot.state = "live"
                        slot.probe_failures = 0
                        if worker.born_late:
                            self._stats["joins"] += 1
                    # The handshake makes a late joiner dispatchable: it takes
                    # the oldest pending task right here.
                    assignments = self._dispatch_locked()
                elif tag in ("result", "error"):
                    task = worker.current
                    if task is not None and task.task_id == frame[1]:
                        worker.current = None
                        assignments = self._dispatch_locked()
                    else:
                        task = None  # stale frame for a task this worker no longer owns
            if probe_rtt is not None:
                obs.observe("fleet.probe_rtt_s", probe_rtt)
            if task is not None:
                self._complete(task, frame)
            if assignments:
                self._send_assignments(assignments)
        self._lose_worker(worker, reason)

    def _record_loss_locked(self, slot: _Slot, reason: str) -> list[tuple[_Task, str]]:
        """Record a loss on ``slot`` and schedule its respawn / quarantine.

        Once *every* slot is quarantined nothing can run, and a sweep must
        not wait on hosts that may never return: the pending tasks are
        removed and returned with their failure messages.  The probes go on,
        so a later submit can still succeed.
        """
        now = time.monotonic()
        slot.loss_times.append(now)
        while slot.loss_times and now - slot.loss_times[0] > self.crash_loop_window:
            slot.loss_times.popleft()
        recent = len(slot.loss_times)
        if recent >= self.crash_loop_threshold:
            if slot.probe_failures == 0:
                # Entering quarantine; a failed probe passes through
                # ``spawning`` and back without being a new quarantine.
                self._stats["quarantines"] += 1
            slot.state = "quarantined"
            slot.probe_failures += 1
            delay = min(
                self.quarantine_backoff_cap,
                self.quarantine_backoff * (2.0 ** (slot.probe_failures - 1)),
            )
        else:
            slot.state = "lost"
            delay = min(self.respawn_backoff_cap, self.respawn_backoff * (2.0 ** (recent - 1)))
        slot.next_attempt = now + delay + self._jitter.uniform(0.0, delay / 2.0)
        if any(s.state != "quarantined" for s in self._slots):
            return []
        doomed = list(self._pending)
        self._pending.clear()
        why = f"all {len(self._slots)} fleet slots are quarantined (last loss: slot {slot.index}, {reason})"
        return [(task, f"cannot run task {task.label}: {why}; probes continue") for task in doomed]

    def _lose_worker(self, worker: _Worker, reason: str) -> None:
        failures: list[tuple[_Task, str]] = []
        with self._lock:
            if not worker.alive:
                return
            worker.alive = False
            slot = worker.slot
            if worker.span is not None:
                worker.span.finish("lost")
            if slot.worker is worker:
                slot.worker = None
            self._stats["workers_lost"] += 1
            in_flight = worker.current
            worker.current = None
            if in_flight is not None:
                if in_flight.attempt_span is not None:
                    # The attempt died with the worker: the orphaned span
                    # closes with a definite ``lost`` status, not dangling.
                    in_flight.attempt_span.finish("lost")
                    in_flight.attempt_span = None
                in_flight.attempts += 1
                in_flight.excluded.add(worker.wid)
                if in_flight.attempts >= self.max_attempts:
                    message = (
                        f"task {in_flight.label} was lost with {in_flight.attempts} worker(s) "
                        f"(last: slot {slot.index}, {reason}); "
                        f"retry budget of {self.max_attempts} attempts exhausted"
                    )
                    failures.append((in_flight, message))
                else:
                    # Back to the front: a retry is older than anything queued.
                    self._pending.appendleft(in_flight)
            if self.respawn:
                failures += self._record_loss_locked(slot, reason)
            else:
                # Nobody will join later: whatever no survivor may take fails now.
                slot.state = "lost"
                survivors = self._dispatchable_locked()
                for task in [t for t in self._pending if all(w.wid in t.excluded for w in survivors)]:
                    self._pending.remove(task)
                    if task is in_flight:
                        message = (
                            f"task {task.label} was in flight on slot {slot.index} ({reason}) and no "
                            f"surviving worker can take it ({self._stats['workers_lost']} workers lost)"
                        )
                    else:
                        message = (
                            f"no surviving worker can run queued task {task.label} "
                            f"after slot {slot.index} lost its worker ({reason})"
                        )
                    failures.append((task, message))
            if in_flight in self._pending:
                self._stats["retries"] += 1  # still queued after the checks above: a real retry
            assignments = self._dispatch_locked()
        for task, message in failures:
            self._fail(task, message)
        self._send_assignments(assignments)
        _kill(worker.proc)

    # -- the fleet thread: health and respawn -------------------------------

    def _fleet_period(self) -> float:
        if self.monitor_period is not None:
            return self.monitor_period
        candidates = [0.25]
        if self.heartbeat_timeout is not None and self.heartbeat_interval > 0:
            candidates.append(self.heartbeat_timeout / 4.0)
        if self.respawn:
            candidates.append(max(self.respawn_backoff / 2.0, 0.02))
        return max(0.02, min(candidates))

    def _fleet_loop(self, stop: threading.Event) -> None:
        period = self._fleet_period()
        while not stop.wait(period):
            self._check_heartbeats()
            if self.respawn:
                self._respawn_due(stop)

    def _check_heartbeats(self) -> None:
        if self.heartbeat_timeout is None or self.heartbeat_interval <= 0:
            return
        now = time.monotonic()
        stale: list[_Worker] = []
        probes: list[_Worker] = []
        with self._lock:
            for slot in self._slots:
                worker = slot.worker
                if worker is None or not worker.alive:
                    continue
                # Workers that have not completed their handshake are still
                # paying interpreter start-up; only the post-hello silence
                # deadline is tight.
                deadline = (
                    self.heartbeat_timeout
                    if worker.remote_pid is not None
                    else max(self.heartbeat_timeout, self.spawn_deadline)
                )
                silence = now - worker.last_seen
                if silence > deadline:
                    stale.append(worker)
                elif worker.remote_pid is not None and silence > deadline / 2.0 and slot.state == "live":
                    slot.state = "suspect"
                    if worker.span is not None:
                        worker.span.event("suspect")
                    probes.append(worker)
        for worker in probes:
            # An actively-probed suspect either answers (any frame clears the
            # state) or stays silent until the full deadline kills it.
            worker.probe_sent = time.monotonic()
            try:
                with worker.write_lock:
                    write_frame(worker.proc.stdin, ("probe",))
            except Exception:
                self._lose_worker(worker, "write to suspect worker failed")
        for worker in stale:
            # Kill the wedged process; its reader thread sees EOF and the
            # normal loss path (retry, exclusion, respawn) takes over.
            try:
                worker.proc.kill()
            except OSError:
                pass

    def _respawn_due(self, stop: threading.Event) -> None:
        now = time.monotonic()
        with self._lock:
            if not self._started:
                return
            due = [
                slot
                for slot in self._slots
                if slot.worker is None
                and slot.state in ("lost", "quarantined")
                and slot.next_attempt is not None
                and slot.next_attempt <= now
            ]
            for slot in due:
                slot.next_attempt = None  # claimed by this tick
        for slot in due:
            if stop.is_set():
                return
            self._attach_replacement(slot)

    def _attach_replacement(self, slot: _Slot) -> None:
        """Spawn a late-joining worker into ``slot`` (respawn or quarantine probe)."""
        try:
            worker = self._spawn_worker(slot, born_late=True)
        except Exception as exc:
            # The spawn itself failed (fork/exec error): treat it like an
            # instant loss so the backoff/quarantine machinery applies.
            with self._lock:
                failures = self._record_loss_locked(slot, f"spawn failed: {type(exc).__name__}: {exc}")
            for task, message in failures:
                self._fail(task, message)
            return
        with self._lock:
            if self._started:
                slot.worker = worker
                slot.state = "spawning"
                self._stats["respawns"] += 1
                return
        # close() won the race: this worker was born into a torn-down fleet.
        worker.alive = False
        _kill(worker.proc)

    # -- lifecycle and introspection ----------------------------------------

    def close(self) -> None:
        # Stop the fleet thread first, outside the lock: a tick in progress
        # may be spawning, and joining it here guarantees no new worker is
        # born after the teardown below collects the living ones.
        self._fleet_stop.set()
        fleet = self._fleet_thread
        if fleet is not None:
            fleet.join(timeout=10)
        with self._lock:
            slots = self._slots
            self._slots = []
            self._started = False
            self._fleet_thread = None
            workers = [slot.worker for slot in slots if slot.worker is not None]
            leftovers: list[_Task] = list(self._pending)
            self._pending.clear()
            for worker in workers:
                worker.alive = False
                if worker.span is not None:
                    worker.span.finish("ok")
                if worker.current is not None:
                    leftovers.append(worker.current)
                    worker.current = None
        for task in leftovers:
            self._fail(task, f"executor closed with task {task.label} outstanding")
        for worker in workers:
            if worker.proc.poll() is None:
                try:
                    with worker.write_lock:
                        write_frame(worker.proc.stdin, ("shutdown",))
                except Exception:
                    pass
            try:
                worker.proc.stdin.close()
            except OSError:
                pass
        for worker in workers:
            try:
                worker.proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                _kill(worker.proc)
        for worker in workers:
            if worker.reader is not None:
                worker.reader.join(timeout=5)

    def worker_pids(self) -> list[int]:
        with self._lock:
            return [w.proc.pid for w in self._live_workers_locked()]

    def busy_worker_pids(self) -> list[int]:
        """PIDs of live workers currently running a task (crash-injection hook)."""
        with self._lock:
            return [w.proc.pid for w in self._live_workers_locked() if w.current is not None]

    def live_worker_count(self) -> int:
        """How many worker processes are alive right now (fleet observability)."""
        with self._lock:
            return len(self._live_workers_locked())

    def slot_states(self) -> list[str]:
        """The per-slot lifecycle states (see the module docstring's machine)."""
        with self._lock:
            return [slot.state for slot in self._slots]

    def partition_worker(self, pid: int) -> bool:
        """Chaos hook: sever the control channel to the worker with ``pid``.

        Closing the parent side of the worker's stdin simulates a network
        partition on a transport the scheduler can observe: the worker sees
        EOF and exits, the parent sees the pipe close, and the ordinary loss
        path (retry, respawn) takes over.  Returns whether a live worker
        with that pid was found.
        """
        with self._lock:
            target = next((w for w in self._live_workers_locked() if w.proc.pid == pid), None)
        if target is None:
            return False
        try:
            with target.write_lock:
                target.proc.stdin.close()
        except OSError:
            pass
        return True

    def stats(self) -> dict:
        """Cumulative scheduler counters for the lifetime of this instance.

        Never reset -- not by :meth:`close`, not by a respawn cycle -- so the
        numbers a sweep reports as provenance include everything that
        happened on the way, mid-sweep recovery included.
        """
        with self._lock:
            return dict(self._stats)

    def __repr__(self) -> str:
        alive = self.live_worker_count()
        return f"{type(self).__name__}(workers={self.workers}, alive={alive}, stats={self.stats()})"


def _package_search_path() -> str:
    """The directory that makes ``import repro`` work in a spawned worker."""
    return str(Path(__file__).resolve().parents[3])


class SubprocessWorkerExecutor(ProtocolExecutor):
    """N long-lived local worker subprocesses speaking the stdio protocol.

    The full remote wire format -- framing, heartbeats, retry scheduling and
    respawn -- exercised entirely on localhost, so distribution bugs surface
    in CI rather than on a cluster.  Workers
    inherit the parent's environment plus a ``PYTHONPATH`` entry for this
    package, and run tasks one at a time.
    """

    def _spawn_command(self, index: int) -> list[str]:
        return [sys.executable, "-m", "repro.worker", "--heartbeat", str(self.heartbeat_interval)]

    def _spawn_env(self) -> dict:
        env = dict(os.environ)
        search = _package_search_path()
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = search + (os.pathsep + existing if existing else "")
        return env


class SSHConfigError(ExecutorError):
    """The SSH backend was requested without any configured hosts."""


def ssh_hosts_from_env() -> list[str]:
    """The ``REPRO_SSH_HOSTS`` host list; raises :class:`SSHConfigError` when unset.

    Shared by :class:`SSHExecutor` and the CLI's early validation, so a
    misconfigured ``--executor ssh`` fails with one clear sentence before
    any sweep starts.
    """
    raw = os.environ.get("REPRO_SSH_HOSTS", "")
    hosts = [h.strip() for h in raw.split(",") if h.strip()]
    if not hosts:
        raise SSHConfigError(
            "the ssh executor needs hosts: pass hosts=[...] or set REPRO_SSH_HOSTS=host1,host2"
        )
    return hosts


class SSHExecutor(ProtocolExecutor):
    """Protocol workers spawned as ``ssh host python -m repro.worker``.

    Hosts come from the constructor or the ``REPRO_SSH_HOSTS`` environment
    variable (comma-separated; repeat a host for more than one worker on
    it).  ``workers`` controls how many of the configured hosts are used:
    the list is cycled when more workers than hosts are requested and
    truncated when fewer (the runner passes its ``jobs``, so ``--executor
    ssh --workers 4`` uses four host entries).  ``REPRO_SSH_PYTHON`` selects
    the remote interpreter (default ``python3``) and
    ``REPRO_SSH_PYTHONPATH``, when set, is exported on the remote side so a
    checkout-only deployment works without installation.
    The ``repro`` package (same version) must be importable on every host;
    because the wire format is identical to the subprocess backend, anything
    proven on localhost holds across machines.

    Host health falls out of the fleet machinery: an unreachable host's
    slot crash-loops into quarantine (the ssh spawn dies or times out at
    the spawn deadline), is re-probed on a growing backoff, and rejoins
    the rotation the first time a probe spawn completes the handshake.

    CI has no hosts configured, so requesting this backend there raises
    :class:`SSHConfigError` -- tests skip on that signal.
    """

    def __init__(
        self,
        hosts: Optional[Sequence[str]] = None,
        workers: Optional[int] = None,
        python: Optional[str] = None,
        **kwargs,
    ) -> None:
        if hosts is None:
            hosts = ssh_hosts_from_env()
        hosts = list(hosts)
        if not hosts:
            raise SSHConfigError(
                "the ssh executor needs hosts: pass hosts=[...] or set REPRO_SSH_HOSTS=host1,host2"
            )
        if workers is not None:
            # One worker per host entry: cycle the list for extra capacity,
            # truncate it when fewer workers than hosts were asked for.
            hosts = [hosts[i % len(hosts)] for i in range(workers)]
        self.hosts = hosts
        self.python = python or os.environ.get("REPRO_SSH_PYTHON", "python3")
        super().__init__(len(hosts), **kwargs)

    def _spawn_command(self, index: int) -> list[str]:
        remote = f"{shlex.quote(self.python)} -m repro.worker --heartbeat {self.heartbeat_interval}"
        remote_path = os.environ.get("REPRO_SSH_PYTHONPATH")
        if remote_path:
            remote = f"env PYTHONPATH={shlex.quote(remote_path)} {remote}"
        return ["ssh", "-o", "BatchMode=yes", self.hosts[index], remote]
