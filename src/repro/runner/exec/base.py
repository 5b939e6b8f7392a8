"""The :class:`Executor` seam: something that runs task functions elsewhere.

The sweep runner's execution model is deliberately tiny: it submits
``(picklable function, picklable payload)`` pairs and collects
:class:`concurrent.futures.Future` objects whose results it consumes in
completion order through ``concurrent.futures.wait``.  Everything the
reproduction computes is a pure function of its payload (scenarios carry
their own seeds; nothing reads ambient state), so *where* a task runs can
never change *what* it returns -- which is exactly the property that makes
the executor pluggable.

An :class:`Executor` is therefore just:

* :meth:`Executor.submit` -- run ``fn(payload)`` somewhere, return a future,
* :meth:`Executor.close` -- tear the backend down (reaping any worker
  processes); implementations respawn lazily on the next submit, mirroring
  the sweep runner's persistent-pool semantics,
* :attr:`Executor.worker_count` -- the effective parallelism, which the
  runner uses to size its bounded submission window.

Three backends ship in this package: :class:`~repro.runner.exec.local.
LocalPoolExecutor` (the historical in-process ``ProcessPoolExecutor``,
zero behavior change), :class:`~repro.runner.exec.remote.
SubprocessWorkerExecutor` (long-lived worker subprocesses speaking the
length-prefixed pickle protocol of :mod:`repro.runner.exec.protocol` over
stdio -- a real remote wire format exercised entirely on localhost), and
:class:`~repro.runner.exec.remote.SSHExecutor` (the same protocol tunnelled
through ``ssh host python -m repro.worker``).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from concurrent.futures import Future
from typing import Callable, Union

#: Executor backends selectable by name (``SweepRunner(executor=...)``,
#: ``configure(executor=...)``, ``REPRO_EXECUTOR``, CLI ``--executor``).
EXECUTOR_SPECS = ("pool", "subprocess", "ssh")

#: What the runner accepts as an executor choice: a spec name, a ready
#: instance, or ``None`` for the default local pool.
ExecutorSpec = Union[None, str, "Executor"]


class ExecutorError(RuntimeError):
    """Base class for executor-backend failures."""


class ExecutorFailure(ExecutorError):
    """A task could not be completed by any worker.

    Set on a task's future when its retry budget is exhausted, when a loss
    leaves every fleet slot quarantined, or when the executor closes with
    the task outstanding.  The message names the task and the attempts made
    or the last loss, so a failed sweep says *why*.
    """


class RemoteTaskError(ExecutorError):
    """A task function raised on a remote worker and the original exception
    could not be shipped back; carries the remote traceback text."""


class Executor(ABC):
    """Runs picklable task functions and returns their results via futures.

    Implementations spawn lazily on the first :meth:`submit` and survive
    :meth:`close` (the next submit respawns), so one executor instance can
    back many sweeps -- the same lifecycle the sweep runner's historical
    persistent pool had.  Futures are standard
    :class:`concurrent.futures.Future` objects, so the runner's windowed
    ``wait(FIRST_COMPLETED)`` loop works unchanged against every backend.
    """

    @abstractmethod
    def submit(self, fn: Callable, payload) -> Future:
        """Schedule ``fn(payload)`` and return a future for its result."""

    @abstractmethod
    def close(self) -> None:
        """Tear down the backend, reaping any worker processes.

        Idempotent; the executor respawns lazily on the next submit.
        """

    @property
    @abstractmethod
    def worker_count(self) -> int:
        """Effective parallelism (workers the backend runs tasks on)."""

    def worker_pids(self) -> list[int]:
        """PIDs of live local worker processes (empty when not applicable)."""
        return []

    def stats(self) -> dict:
        """Cumulative scheduler counters for this instance (may be empty).

        Backends that count (retries, workers lost, respawns, ...)
        never reset the numbers -- not on :meth:`close`, not on a respawn
        cycle -- so post-sweep provenance survives mid-sweep recovery.
        """
        return {}

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


def make_executor(spec: ExecutorSpec, workers: int) -> Executor:
    """Build the executor ``spec`` names (or pass a ready instance through).

    ``None`` and ``"pool"`` give the historical in-process pool;
    ``"subprocess"`` spawns ``workers`` protocol workers on this machine;
    ``"ssh"`` reads its host list from ``REPRO_SSH_HOSTS`` (and raises a
    clear error when none are configured).  A caller that needs a
    non-default fleet policy (retry budget, backoffs, heartbeat deadlines)
    constructs the backend itself and passes the instance.
    """
    if isinstance(spec, Executor):
        return spec
    if spec is None or spec == "pool":
        from .local import LocalPoolExecutor

        return LocalPoolExecutor(workers)
    if spec == "subprocess":
        from .remote import SubprocessWorkerExecutor

        return SubprocessWorkerExecutor(workers)
    if spec == "ssh":
        from .remote import SSHExecutor

        return SSHExecutor(workers=workers)
    raise ValueError(f"unknown executor {spec!r}; expected one of {EXECUTOR_SPECS} or an Executor instance")
