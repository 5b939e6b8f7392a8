"""Fault injection: misbehaving tasks and a deterministic chaos harness.

Two layers live here, both test-and-experiment infrastructure (none of it
runs on production execution paths):

* **Picklable fault-injection tasks** -- the fault-injection suites
  (``tests/test_executors.py``, ``tests/test_fleet.py``) and experiments
  E14/E15 need task functions that misbehave in controlled ways *inside a
  worker process* (crash it, wedge it, stall it), and task functions must be
  importable by qualified name on the worker side, so they live here rather
  than in the test modules.  Coordination uses sentinel files: a path the
  parent chooses is an atomic cross-process latch (``O_CREAT | O_EXCL``),
  which keeps "fail exactly once, then succeed on retry" deterministic
  without any shared state beyond the filesystem.

* **A scripted chaos layer** -- :class:`ChaosSchedule` (a seed-keyed list of
  "after N completed chunks, do X" events, parsed from specs like
  ``"kill@1,wedge@3"``) and :class:`ChaosController` (wraps an executor's
  ``submit`` to count chunk completions and fires each due event against a
  deterministically chosen victim worker: ``kill`` SIGKILLs it, ``wedge``
  SIGSTOPs it so only the heartbeat deadline can see it, ``partition``
  severs its control pipe).  Progress-keyed firing makes the chaos
  *schedule* machine-independent even though wall-clock timings are not --
  and because every task is a pure function of its payload, a sweep under
  any schedule must return float-for-float what the quiet sweep returns,
  which is exactly what the churn-invariance suite asserts.
"""

from __future__ import annotations

import os
import random
import signal
import threading
import time
from typing import Optional, Sequence


def echo_task(payload):
    """Return the payload unchanged (the executor smoke-test task)."""
    return payload


def square_task(payload):
    """Return ``payload ** 2`` (distinguishes results from payloads)."""
    return payload**2


def raise_task(payload):
    """Raise ``ValueError(payload)`` -- a deterministic *task* failure (the
    worker survives; the error must propagate without retry)."""
    raise ValueError(payload)


def unpicklable_result_task(payload):
    """Return a closure -- a result that cannot be shipped home.  The worker
    must report a serialization error, not die."""
    return lambda: payload  # pragma: no cover - never called, never pickled


def exit_task(payload):
    """Kill the worker process immediately (crashes on *every* attempt)."""
    os._exit(int(payload) if payload else 1)


def _acquire_latch(path: str) -> bool:
    """Atomically create ``path``; True for exactly one caller across processes."""
    try:
        fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    os.write(fd, str(os.getpid()).encode())
    os.close(fd)
    return True


def crash_once_task(payload):
    """Kill the worker on the first execution (latch file), succeed on retry."""
    if _acquire_latch(str(payload)):
        os._exit(1)
    return "recovered"


def hang_once_task(payload):
    """First execution: write the worker pid to ``payload`` and hang until
    killed.  Retry: return ``"recovered"``.  Lets a test kill a worker that
    is *provably mid-task* and assert the chunk completes elsewhere."""
    if _acquire_latch(str(payload)):
        while True:
            time.sleep(0.05)
    return "recovered"


def freeze_once_task(payload):
    """First execution: SIGSTOP the worker (alive but silent -- heartbeats
    stop, pipes stay open), so only the heartbeat deadline can detect it.
    Retry: return ``"recovered"``."""
    if _acquire_latch(str(payload)):
        os.kill(os.getpid(), signal.SIGSTOP)
        # Unreachable unless the process is resumed instead of killed.
        time.sleep(3600)
    return "recovered"


def hang_until_file_task(payload):
    """Block until the file named by ``payload`` exists, then return it.

    A controllable straggler: the parent decides when the task may finish,
    which makes queue-order scenarios deterministic.
    """
    path = str(payload)
    while not os.path.exists(path):
        time.sleep(0.02)
    return path


# -- the scripted chaos layer -------------------------------------------------

#: Chaos actions a schedule may fire.  ``kill`` is instant death (SIGKILL,
#: pipe EOF seen immediately); ``wedge`` is alive-but-silent (SIGSTOP: pipes
#: stay open, heartbeats stop, only the heartbeat deadline can detect it);
#: ``partition`` severs the parent->worker control pipe, the closest stdio
#: analogue of a network partition.
CHAOS_ACTIONS = ("kill", "wedge", "partition")


class ChaosEvent:
    """One scripted disruption: after ``after_results`` chunks, do ``action``."""

    __slots__ = ("after_results", "action")

    def __init__(self, after_results: int, action: str) -> None:
        if after_results < 1:
            raise ValueError(f"after_results must be positive, got {after_results}")
        if action not in CHAOS_ACTIONS:
            raise ValueError(f"unknown chaos action {action!r}; expected one of {CHAOS_ACTIONS}")
        self.after_results = after_results
        self.action = action

    def __repr__(self) -> str:
        return f"{self.action}@{self.after_results}"


class ChaosSchedule:
    """A deterministic, seed-keyed schedule of chaos events.

    Events are keyed to *progress* (completed chunk count), not wall-clock
    time, so the same schedule describes the same disruption pattern on a
    fast laptop and a loaded CI runner.  The ``seed`` keys victim selection
    inside :class:`ChaosController`.
    """

    def __init__(self, events: Sequence[ChaosEvent], seed: int = 0) -> None:
        self.events = sorted(events, key=lambda e: e.after_results)
        self.seed = seed

    @classmethod
    def parse(cls, spec: str, seed: int = 0) -> "ChaosSchedule":
        """Parse ``"kill@1,wedge@3,partition@5"`` into a schedule.

        Each comma-separated entry is ``action@count``: fire ``action`` once
        the executor has completed ``count`` chunks.  This is the format the
        CLI's ``--chaos`` flag accepts.
        """
        events = []
        for entry in spec.split(","):
            entry = entry.strip()
            if not entry:
                continue
            action, sep, count = entry.partition("@")
            if not sep:
                raise ValueError(f"chaos entry {entry!r} is not of the form action@count")
            events.append(ChaosEvent(int(count), action.strip()))
        if not events:
            raise ValueError(f"chaos spec {spec!r} contains no events")
        return cls(events, seed=seed)

    @classmethod
    def kill_every_worker(
        cls, workers: int, start: int = 1, stride: int = 1, seed: int = 0
    ) -> "ChaosSchedule":
        """A kill per initial worker, spaced ``stride`` completed chunks apart.

        The controller prefers victims it has never hit, so this schedule
        guarantees every member of the *initial* fleet dies at least once --
        the acceptance scenario for churn invariance.
        """
        events = [ChaosEvent(start + i * stride, "kill") for i in range(workers)]
        return cls(events, seed=seed)

    def __repr__(self) -> str:
        return f"ChaosSchedule({','.join(map(repr, self.events))}, seed={self.seed})"


class ChaosController:
    """Fires a :class:`ChaosSchedule` against a live protocol executor.

    Used as a context manager around a sweep::

        with ChaosController(executor, ChaosSchedule.parse("kill@1,kill@2")):
            results = runner.run_sweep(...)

    On entry it shadows ``executor.submit`` so every future it hands out
    carries a done-callback; each completion advances a progress counter and
    fires the events that have come due.  Victims are chosen by a
    ``random.Random(schedule.seed)`` over *sorted* candidate pids -- busy
    workers it has never hit first, then any never-hit live worker, then any
    live worker -- so a schedule with as many kills as workers provably
    murders the whole initial fleet, deterministically for a given seed and
    completion order.  ``fired`` logs ``(action, after_results, pid)``
    tuples; a ``pid`` of ``None`` records an event that found no live victim.
    """

    def __init__(self, executor, schedule: ChaosSchedule) -> None:
        self.executor = executor
        self.schedule = schedule
        self.fired: list[tuple[str, int, Optional[int]]] = []
        self._pending = list(schedule.events)
        self._completed = 0
        self._rng = random.Random(schedule.seed)
        self._hit: set[int] = set()
        self._lock = threading.Lock()
        self._orig_submit = executor.submit

    # Shadowing the bound method with an instance attribute (rather than
    # wrapping the executor) keeps the runner's `isinstance`/identity checks
    # and its windowed wait loop oblivious to the chaos layer.
    def __enter__(self) -> "ChaosController":
        self.executor.submit = self._submit
        return self

    def __exit__(self, *_exc) -> None:
        try:
            del self.executor.submit
        except AttributeError:
            pass

    def _submit(self, fn, payload):
        future = self._orig_submit(fn, payload)
        future.add_done_callback(self._on_done)
        return future

    def _on_done(self, _future) -> None:
        with self._lock:
            self._completed += 1
            due = []
            while self._pending and self._pending[0].after_results <= self._completed:
                due.append(self._pending.pop(0))
        for event in due:
            self._fire(event)

    def _pick_victim(self) -> Optional[int]:
        busy = set(self.executor.busy_worker_pids())
        live = set(self.executor.worker_pids())
        for pool in (sorted(busy - self._hit), sorted(live - self._hit), sorted(live)):
            if pool:
                pid = self._rng.choice(pool)
                self._hit.add(pid)
                return pid
        return None

    def _fire(self, event: ChaosEvent) -> None:
        pid = self._pick_victim()
        with self._lock:
            self.fired.append((event.action, event.after_results, pid))
        if pid is None:
            return
        try:
            if event.action == "kill":
                os.kill(pid, signal.SIGKILL)
            elif event.action == "wedge":
                os.kill(pid, signal.SIGSTOP)
            elif event.action == "partition":
                partition = getattr(self.executor, "partition_worker", None)
                if partition is None or not partition(pid):
                    os.kill(pid, signal.SIGKILL)
        except (OSError, ProcessLookupError):
            pass  # the victim beat us to dying; the schedule still advanced

    @property
    def victims(self) -> set[int]:
        """Distinct worker pids this controller has disrupted so far."""
        with self._lock:
            return set(self._hit)
