"""Pluggable executor backends for the sweep runner.

The execution seam (:class:`~repro.runner.exec.base.Executor`) abstracts
"something that runs picklable task functions and returns futures".  Three
backends ship:

========================  ====================================================
``pool`` (default)        :class:`~repro.runner.exec.local.LocalPoolExecutor`
                          -- the historical persistent in-process
                          multiprocessing pool, zero behavior change.
``subprocess``            :class:`~repro.runner.exec.remote.
                          SubprocessWorkerExecutor` -- N long-lived worker
                          subprocesses speaking the length-prefixed pickle
                          protocol over stdio, scheduled fault-tolerantly
                          (heartbeats, bounded retries with worker
                          exclusion, one shared pending queue).
``ssh``                   :class:`~repro.runner.exec.remote.SSHExecutor` --
                          the same protocol over ``ssh host python -m
                          repro.worker``; configured via ``REPRO_SSH_HOSTS``.
========================  ====================================================

The protocol backends are a self-healing fleet of fixed size: lost workers
respawn with backoff, crash-looping slots are quarantined and re-probed,
and every idle worker -- a late joiner included -- takes the oldest task
from one pending queue.  Every scheduling decision is taken by the pure
state machine in ``repro.runner.exec.fleet`` (its module docstring has the
slot states); ``repro.runner.exec.remote`` is the I/O shell around it.

Because every task in this system is a pure function of its payload, backend
choice can never change a measured value -- only where and how reliably the
work runs.  ``tests/test_executors.py``, ``tests/test_fleet.py`` and
experiments E14/E15 assert that invariance float-for-float, including across
injected worker crashes and continuous fleet churn.
"""

from .base import (
    EXECUTOR_SPECS,
    Executor,
    ExecutorError,
    ExecutorFailure,
    ExecutorSpec,
    RemoteTaskError,
    make_executor,
)
from .faultinject import ChaosController, ChaosEvent, ChaosSchedule
from .local import LocalPoolExecutor
from .protocol import ProtocolError, read_frame, write_frame
from .remote import (
    ProtocolExecutor,
    SSHConfigError,
    SSHExecutor,
    SubprocessWorkerExecutor,
    ssh_hosts_from_env,
)

__all__ = [
    "EXECUTOR_SPECS",
    "Executor",
    "ExecutorSpec",
    "ExecutorError",
    "ExecutorFailure",
    "RemoteTaskError",
    "make_executor",
    "LocalPoolExecutor",
    "ProtocolExecutor",
    "SubprocessWorkerExecutor",
    "SSHExecutor",
    "SSHConfigError",
    "ssh_hosts_from_env",
    "ChaosController",
    "ChaosEvent",
    "ChaosSchedule",
    "ProtocolError",
    "read_frame",
    "write_frame",
]
