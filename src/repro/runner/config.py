"""The process-wide default sweep runner.

The experiment modules, :func:`repro.workloads.sweeps.run_sweep`, the CLI and
the report generator all execute sweeps through one shared
:class:`~repro.runner.core.SweepRunner` so that a single ``--jobs 8`` (or
``REPRO_JOBS=8``) parallelizes every sweep in the process.  Library users who
need an isolated configuration construct their own runner and pass it
explicitly.

Executor lifecycle is owned here too: :func:`configure` and
:func:`reset_runner` close the previous runner before installing (or
forgetting) a default, and ``SweepRunner.close`` tears down whichever
execution backend it spawned -- so swapping configurations, or resetting
between tests, reaps local pool processes and protocol worker subprocesses
alike (no leaked children).

Environment defaults (used until :func:`configure` is called):

* ``REPRO_JOBS`` -- worker processes (``0`` means one per CPU; default ``1``),
* ``REPRO_EXECUTOR`` -- execution backend: ``pool`` (default, in-process
  multiprocessing), ``subprocess`` (local protocol workers with
  fault-tolerant scheduling) or ``ssh`` (protocol workers on
  ``REPRO_SSH_HOSTS``),
* ``REPRO_CACHE`` -- set to ``0``/``false``/``no``/``off`` to disable the
  result cache (default: enabled),
* ``REPRO_CACHE_DIR`` -- cache location (default ``~/.cache/repro-sweeps``).

The sharded backend's auto shard plan (``Scenario.shards=None``) resolves to
one shard per core; ``REPRO_SHARDS`` overrides that resolution (see
:func:`repro.workloads.scenarios.auto_shard_count`).  It is read per sweep,
not captured here, because the shard plan is part of each scenario's cache
key.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Optional, Union

from .cache import ResultCache
from .core import SweepRunner
from .exec import EXECUTOR_SPECS, Executor, ExecutorSpec

_FALSY = {"0", "false", "no", "off", ""}

_default_runner: Optional[SweepRunner] = None


def _env_jobs() -> int:
    raw = os.environ.get("REPRO_JOBS", "").strip()
    if not raw:
        return 1
    try:
        jobs = int(raw)
        if jobs >= 0:
            return jobs
    except ValueError:
        pass
    raise ValueError(f"REPRO_JOBS must be a non-negative integer, got {raw!r}")


def _env_executor() -> str:
    raw = os.environ.get("REPRO_EXECUTOR", "").strip().lower()
    if not raw:
        return "pool"
    if raw not in EXECUTOR_SPECS:
        raise ValueError(f"REPRO_EXECUTOR must be one of {EXECUTOR_SPECS}, got {raw!r}")
    return raw


def _env_cache_enabled() -> bool:
    return os.environ.get("REPRO_CACHE", "1").strip().lower() not in _FALSY


def configure(
    jobs: Optional[int] = None,
    use_cache: Optional[bool] = None,
    cache_dir: Union[str, Path, None] = None,
    executor: ExecutorSpec = None,
    workers: Optional[int] = None,
) -> SweepRunner:
    """Install (and return) the process-wide default runner.

    Arguments left as ``None`` fall back to the environment defaults above,
    except that an explicitly passed ``cache_dir`` implies caching (it would
    otherwise be silently ignored under ``REPRO_CACHE=0``).  ``executor``
    selects the execution backend (``REPRO_EXECUTOR`` otherwise); ``workers``
    is the backend-flavoured spelling of ``jobs`` (the CLI's ``--executor
    subprocess --workers 4``) and overrides it when both are given.  The
    previously installed runner is closed first, reaping its workers.
    """
    global _default_runner
    if jobs is None:
        jobs = _env_jobs()
    if workers is not None:
        jobs = workers
    if executor is None:
        executor = _env_executor()
    elif isinstance(executor, str) and executor not in EXECUTOR_SPECS:
        raise ValueError(f"executor must be one of {EXECUTOR_SPECS}, got {executor!r}")
    elif not isinstance(executor, (str, Executor)):
        raise TypeError(f"executor must be a spec name or Executor instance, got {executor!r}")
    if use_cache is None:
        use_cache = True if cache_dir is not None else _env_cache_enabled()
    cache = ResultCache(cache_dir) if use_cache else None
    if _default_runner is not None:
        _default_runner.close()
    _default_runner = SweepRunner(jobs=jobs, cache=cache, executor=executor)
    return _default_runner


def get_runner() -> SweepRunner:
    """The current default runner (built from the environment on first use)."""
    global _default_runner
    if _default_runner is None:
        _default_runner = configure()
    return _default_runner


def reset_runner() -> None:
    """Forget the configured default (next :func:`get_runner` re-reads the env).

    Closes the runner first, so any execution backend it spawned -- the
    local pool or protocol worker subprocesses -- is reaped before the
    default is dropped.
    """
    global _default_runner
    if _default_runner is not None:
        _default_runner.close()
    _default_runner = None
