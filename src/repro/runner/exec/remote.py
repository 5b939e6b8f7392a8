"""Remote protocol executors: the I/O shell around the fleet's scheduling core.

Both backends here run the length-prefixed pickle protocol of
:mod:`repro.runner.exec.protocol` against long-lived ``repro.worker``
processes; they differ only in how a worker is spawned
(:class:`SubprocessWorkerExecutor`: ``python -m repro.worker`` on this
machine, :class:`SSHExecutor`: the same through ``ssh host ...``).

:class:`ProtocolExecutor` takes no scheduling decision: retries, respawn,
quarantine, deadlines and dispatch all belong to the thread-free
:class:`~repro.runner.exec.fleet.Fleet`, whose module docstring states the
policy.  The shell owns the worker processes, one reader thread per worker
that turns each frame and the pipe's EOF into a core event, the fleet thread
that delivers the clock tick, frame encoding and pipe writes, the futures
and the telemetry spans.  Every entry point follows one pattern: take the
lock, ``handle`` the event, release the lock, perform the returned actions.
Because tasks are pure, a chunk retried after a worker loss returns
float-for-float what the first attempt would have.
"""

from __future__ import annotations

import itertools
import os
import shlex
import subprocess
import sys
import threading
import time
from concurrent.futures import Future, InvalidStateError
from pathlib import Path
from typing import Callable, Optional, Sequence

from ... import obs
from . import fleet
from .base import Executor, ExecutorError, ExecutorFailure, RemoteTaskError
from .protocol import encode_frame, read_frame


class _Task(fleet.Task):
    """A submitted call: the core's record plus the call, its future and its telemetry."""

    __slots__ = ("fn", "payload", "future", "ctx", "span", "attempt_span", "submitted")

    def __init__(self, task_id: int, fn: Callable, payload) -> None:
        super().__init__(task_id, f"#{task_id} ({getattr(fn, '__name__', str(fn))})")
        self.fn = fn
        self.payload = payload
        self.future: Future = Future()
        #: Telemetry: the trace context shipped in this task's frames (None
        #: keeps the 4-element wire format), the parent-side ``exec.task``
        #: span covering submit->complete, the per-dispatch ``exec.attempt``
        #: span, and the submit timestamp for the queue-wait histogram.
        self.ctx: Optional[dict] = None
        self.span = None
        self.attempt_span = None
        self.submitted = 0.0


class _Worker:
    """The process behind one worker incarnation, and its pipes."""

    __slots__ = ("wid", "slot", "proc", "reader", "write_lock", "span", "probe_sent")

    def __init__(self, wid: int, slot: int, proc: subprocess.Popen) -> None:
        self.wid = wid
        self.slot = slot
        self.proc = proc
        self.reader: Optional[threading.Thread] = None
        self.write_lock = threading.Lock()
        #: Telemetry: the ``fleet.worker`` incarnation span (when tracing is
        #: on) and the send time of an outstanding liveness probe, consumed
        #: by the next main-loop frame into the ``fleet.probe_rtt_s`` histogram.
        self.span = None
        self.probe_sent: Optional[float] = None


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
    is never zeroed by mid-sweep recovery.  The policy arguments are
    :class:`~repro.runner.exec.fleet.Fleet`'s; ``heartbeat_timeout``
    defaults to :data:`~repro.runner.exec.fleet.HEARTBEAT_TIMEOUT_FACTOR`
    heartbeat intervals, and a worker that does not beat (interval <= 0)
    has no deadline.
    """

    def __init__(
        self,
        workers: int,
        max_attempts: int = fleet.MAX_ATTEMPTS,
        heartbeat_interval: float = fleet.HEARTBEAT_INTERVAL,
        heartbeat_timeout: Optional[float] = None,
        respawn_backoff: float = fleet.RESPAWN_BACKOFF,
        respawn_backoff_cap: float = fleet.RESPAWN_BACKOFF_CAP,
        crash_loop_threshold: int = fleet.CRASH_LOOP_THRESHOLD,
        crash_loop_window: float = fleet.CRASH_LOOP_WINDOW,
        quarantine_backoff: float = fleet.QUARANTINE_BACKOFF,
        quarantine_backoff_cap: float = fleet.QUARANTINE_BACKOFF_CAP,
        spawn_deadline: float = fleet.SPAWN_DEADLINE,
    ) -> None:
        if heartbeat_timeout is None:
            heartbeat_timeout = fleet.HEARTBEAT_TIMEOUT_FACTOR * heartbeat_interval
        self.heartbeat_interval = heartbeat_interval
        self._fleet = fleet.Fleet(
            workers,
            max_attempts=max_attempts,
            heartbeat_timeout=heartbeat_timeout if heartbeat_interval > 0 else None,
            respawn_backoff=respawn_backoff,
            respawn_backoff_cap=respawn_backoff_cap,
            crash_loop_threshold=crash_loop_threshold,
            crash_loop_window=crash_loop_window,
            quarantine_backoff=quarantine_backoff,
            quarantine_backoff_cap=quarantine_backoff_cap,
            spawn_deadline=spawn_deadline,
        )
        self._lock = threading.Lock()
        #: The processes of the core's incarnations, by wid, from spawn until
        #: their loss is handled.
        self._workers: dict[int, _Worker] = {}
        self._task_ids = itertools.count()
        self._fleet_thread: Optional[threading.Thread] = None
        self._fleet_stop = threading.Event()

    @property
    def worker_count(self) -> int:
        return self._fleet.size

    def _handle(self, event) -> None:
        with self._lock:
            actions = self._fleet.handle(event, time.monotonic())
        self._perform(actions)

    def _perform(self, actions: list) -> None:
        """Carry out the core's actions, in order, outside the lock."""
        for action in actions:
            match action:
                case fleet.Send(wid, task):
                    worker = self._workers.get(wid)
                    if worker is not None:  # else it was lost meanwhile, and the loss requeued the task
                        self._send(worker, task)
                case fleet.Resolve(task, frame):
                    self._resolve(task, frame)
                case fleet.Fail(task, message):
                    self._fail(task, ExecutorFailure(message))
                case fleet.Spawn(slot, wid, born_late):
                    self._spawn(slot, wid, born_late)
                case fleet.Probe(wid):
                    worker = self._workers.get(wid)
                    if worker is not None:
                        if worker.span is not None:
                            worker.span.event("suspect")
                        worker.probe_sent = time.monotonic()
                        self._write(worker, encode_frame(("probe",)), "write to suspect worker failed")
                case fleet.Kill(wid):
                    worker = self._workers.get(wid)
                    if worker is not None:
                        _kill(worker.proc)  # its reader sees the EOF and reports the loss

    # -- spawning ----------------------------------------------------------

    def _spawn_command(self, index: int) -> list[str]:
        raise NotImplementedError

    def _spawn_env(self) -> Optional[dict]:
        return None

    def _spawn(self, slot: int, wid: int, born_late: bool) -> None:
        try:
            proc = subprocess.Popen(
                self._spawn_command(slot),
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=None,  # workers log to the parent's stderr
                env=self._spawn_env(),
            )
        except Exception as exc:
            # fork/exec failed: the core counts it as an instant loss, so
            # the backoff and quarantine machinery applies.
            self._handle(fleet.SpawnFailed(wid, f"spawn failed: {type(exc).__name__}: {exc}"))
            return
        worker = _Worker(wid, slot, proc)
        if obs.enabled():
            # Incarnation spans are timeline roots: a worker outlives any one
            # sweep, so parenting it under a sweep span would break nesting.
            worker.span = obs.tracer().begin("fleet.worker")
            worker.span.parent_id = None
            worker.span.set("slot", slot)
            worker.span.set("wid", wid)
            worker.span.set("born_late", born_late)
        worker.reader = threading.Thread(
            target=self._read_loop, args=(worker,), name=f"repro-exec-reader-{slot}.{wid}", daemon=True
        )
        # Registered and reported before its reader starts, so no frame of
        # this worker can reach the core ahead of its spawn.
        with self._lock:
            self._workers[wid] = worker
            actions = self._fleet.handle(fleet.Spawned(wid), time.monotonic())
        worker.reader.start()
        self._perform(actions)

    # -- submission and dispatch -------------------------------------------

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
        with self._lock:
            if self._fleet_thread is None:
                self._fleet_stop = threading.Event()
                self._fleet_thread = threading.Thread(
                    target=self._fleet_loop, args=(self._fleet_stop,), name="repro-exec-fleet", daemon=True
                )
                self._fleet_thread.start()
            actions = self._fleet.handle(fleet.Submit(task), time.monotonic())
        self._perform(actions)
        return task.future

    def _send(self, worker: _Worker, task: _Task) -> None:
        first = task.attempts == 0  # a retry's future is already running
        if first and not task.future.set_running_or_notify_cancel():
            self._handle(fleet.Unsent(worker.wid, task.task_id))  # cancelled while queued: dropped
            return
        try:
            if task.ctx is None:
                frame = encode_frame(("task", task.task_id, task.fn, task.payload))
            else:
                frame = encode_frame(("task", task.task_id, task.fn, task.payload, task.ctx))
        except Exception as exc:
            # The *task* cannot be shipped (unpicklable payload, frame over
            # the size limit) -- that is the submitter's error, not the
            # worker's: surface it on the future, free the worker and keep
            # dispatching.  Matches the local pool, which fails the future on
            # a pickling error without killing anything.
            self._fail(task, exc)
            self._handle(fleet.Unsent(worker.wid, task.task_id))
            return
        if task.ctx is not None:
            if first:
                # Queue wait: submit -> first dispatch (retries excluded).
                obs.observe("fleet.queue_wait_s", time.monotonic() - task.submitted)
            if task.span is not None and obs.enabled():
                task.attempt_span = obs.tracer().begin("exec.attempt", parent=task.span.span_id)
                task.attempt_span.set("slot", worker.slot)
                task.attempt_span.set("wid", worker.wid)
        self._write(worker, frame, "write to worker failed")

    def _write(self, worker: _Worker, data: bytes, reason: str) -> None:
        try:
            with worker.write_lock:
                worker.proc.stdin.write(data)
                worker.proc.stdin.flush()
        except (OSError, ValueError):
            # The pipe died under us (or was severed): the loss puts the
            # task back in the queue and accounts the lost worker.
            self._lose(worker, reason)

    # -- completion and loss ------------------------------------------------

    def _resolve(self, task: _Task, frame: tuple) -> None:
        ok = frame[0] == "result"
        telemetry = frame[3] if ok and len(frame) > 3 else (frame[4] if not ok and len(frame) > 4 else None)
        if telemetry is not None:
            # Fold the worker's shipped spans and metrics into this process's.
            if telemetry.get("spans") is not None and obs.enabled():
                obs.tracer().ingest(telemetry["spans"])
            if telemetry.get("metrics") is not None and obs.metrics_enabled():
                obs.registry().absorb(telemetry["metrics"])
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

    def _fail(self, task: _Task, exc: BaseException) -> None:
        """Fail a task's future.  Never call while holding the scheduler lock:
        ``set_exception`` runs done-callbacks synchronously, and a callback
        (the chaos harness, a waiting sweep) may re-enter the executor."""
        if task.attempt_span is not None:
            task.attempt_span.finish("lost")
            task.attempt_span = None
        if task.span is not None:
            task.span.finish("error")
        try:
            task.future.set_exception(exc)
        except InvalidStateError:
            pass  # cancelled while queued; nobody is waiting for it

    def _read_loop(self, worker: _Worker) -> None:
        reason = "worker process exited"
        while True:
            try:
                frame = read_frame(worker.proc.stdout)
            except Exception as exc:
                # Corrupt or truncated stream (e.g. something polluted the
                # remote stdout): keep the diagnostic -- 'exited' and 'stream
                # desynced' need very different fixes on a real deployment.
                reason = f"worker stream failed: {type(exc).__name__}: {exc}"
                break
            if frame is None:
                break
            if worker.probe_sent is not None and frame[0] != "heartbeat":
                # Any main-loop frame answers the probe; the heartbeat thread
                # keeps beating even on a wedged worker, so it proves nothing
                # about the loop we probed.
                obs.observe("fleet.probe_rtt_s", time.monotonic() - worker.probe_sent)
                worker.probe_sent = None
            if frame[0] == "hello" and worker.span is not None:
                worker.span.set("remote_pid", frame[1])
                worker.span.event("hello")
            self._handle(fleet.Frame(worker.wid, frame))
        self._lose(worker, reason)
        # The process is reaped and this thread read its last frame: release
        # the pipes (a late write then fails with ValueError, a no-op loss).
        with worker.write_lock:
            worker.proc.stdout.close()
            try:
                worker.proc.stdin.close()
            except OSError:
                pass  # unflushed bytes for a dead process: nobody to deliver them to

    def _lose(self, worker: _Worker, reason: str) -> None:
        """Report ``worker`` lost (a no-op for the core after the first report) and reap it."""
        with self._lock:
            task = self._fleet.running(worker.wid)
            if task is not None and task.attempt_span is not None:
                # The attempt died with the worker: the orphaned span closes
                # with a definite ``lost`` status, not dangling.
                task.attempt_span.finish("lost")
                task.attempt_span = None
            actions = self._fleet.handle(fleet.Lost(worker.wid, reason), time.monotonic())
            self._workers.pop(worker.wid, None)
        if worker.span is not None:
            worker.span.finish("lost")  # a no-op after close() finished it ``ok``
        self._perform(actions)
        _kill(worker.proc)

    def _fleet_loop(self, stop: threading.Event) -> None:
        while not stop.wait(self._fleet.period):
            self._handle(fleet.Tick())

    # -- lifecycle and introspection ----------------------------------------

    def close(self) -> None:
        # Stop the fleet thread first, outside the lock: a tick in progress
        # may be spawning, and joining it here guarantees no new worker is
        # born after the teardown below collects the living ones.
        self._fleet_stop.set()
        if self._fleet_thread is not None:
            self._fleet_thread.join(timeout=10)
        with self._lock:
            self._fleet_thread = None
            actions = self._fleet.handle(fleet.Close(), time.monotonic())
            workers = list(self._workers.values())
            self._workers.clear()
        for worker in workers:
            if worker.span is not None:
                worker.span.finish("ok")
        self._perform(actions)
        for worker in workers:
            if worker.proc.poll() is None:
                self._write(worker, encode_frame(("shutdown",)), "executor closed")
            try:
                worker.proc.stdin.close()
            except OSError:
                pass  # the pipe is already gone; the wait below reaps the process
        for worker in workers:
            try:
                worker.proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                _kill(worker.proc)
        for worker in workers:
            worker.reader.join(timeout=5)

    def _live_workers(self) -> list[tuple[_Worker, Optional[fleet.Task]]]:
        """``(process, task)`` of every occupied slot's running worker; caller holds the lock."""
        return [(self._workers[w.wid], w.task) for w in self._fleet.live() if w.wid in self._workers]

    def worker_pids(self) -> list[int]:
        with self._lock:
            return [worker.proc.pid for worker, _ in self._live_workers()]

    def busy_worker_pids(self) -> list[int]:
        """PIDs of live workers currently running a task (crash-injection hook)."""
        with self._lock:
            return [worker.proc.pid for worker, task in self._live_workers() if task is not None]

    def live_worker_count(self) -> int:
        """How many worker processes are alive right now (fleet observability)."""
        return len(self.worker_pids())

    def slot_states(self) -> list[str]:
        """The per-slot lifecycle states (see :mod:`repro.runner.exec.fleet`)."""
        with self._lock:
            return [slot.state for slot in self._fleet.slots]

    def partition_worker(self, pid: int) -> bool:
        """Chaos hook: sever the control channel to the worker with ``pid``.

        Closing the parent side of the worker's stdin simulates a network
        partition on a transport the scheduler can observe: the worker sees
        EOF and exits, the parent sees the pipe close, and the ordinary loss
        path (retry, respawn) takes over.  Returns whether a live worker
        with that pid was found.
        """
        with self._lock:
            target = next((worker for worker, _ in self._live_workers() if worker.proc.pid == pid), None)
        if target is None:
            return False
        try:
            with target.write_lock:
                target.proc.stdin.close()
        except OSError:
            pass  # a close that fails still leaves the pipe unusable: the loss path follows
        return True

    def stats(self) -> dict:
        """Cumulative scheduler counters for the lifetime of this instance.

        Never reset -- not by :meth:`close`, not by a respawn cycle -- so the
        numbers a sweep reports as provenance include everything that
        happened on the way, mid-sweep recovery included.
        """
        with self._lock:
            return dict(self._fleet.stats)

    def __repr__(self) -> str:
        alive = self.live_worker_count()
        return f"{type(self).__name__}(workers={self.worker_count}, alive={alive}, stats={self.stats()})"


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
