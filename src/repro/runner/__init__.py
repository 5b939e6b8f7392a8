"""Parallel sweep execution with on-disk result caching.

Every experiment in the reproduction is a sweep over independent, seeded
scenarios, so the grid points can be computed in any order and on any number
of worker processes without changing the results.  This subsystem provides:

* :class:`~repro.runner.core.SweepRunner` -- executes a list of scenarios
  either serially (exact result ordering, deterministic callback order) or
  across worker processes (``jobs > 1``), with chunked batching to amortize
  pickling overhead,
* :class:`~repro.runner.cache.ResultCache` -- an on-disk cache keyed by a
  stable hash of the scenario description, the resolved ``check_guarantees``
  flag and a code-version salt, so repeated sweeps and report regeneration
  skip already-computed grid points,
* :mod:`~repro.runner.sharded` -- the sharded execution backend: replicated
  scenarios split along a deterministic shard plan into worker tasks that
  share the sweep pool, and the per-shard summaries fold through the exact
  merge algebra of :class:`repro.sim.recorder.OnlineMetricsSummary`, so
  sharding never changes a measured value,
* :mod:`~repro.runner.exec` -- the pluggable execution backends behind the
  sweep: the historical in-process pool (``pool``), long-lived protocol
  worker subprocesses with fault-tolerant scheduling (``subprocess``), and
  the same wire protocol over ``ssh``.  Scenarios are pure functions of
  their description, so backend choice never changes a measured value,
* :mod:`~repro.runner.config` -- the process-wide default runner that
  :func:`repro.workloads.sweeps.run_sweep`, the experiment modules, the CLI
  and the report generator all share (configured via
  ``--jobs``/``--executor``/``--no-cache`` or the ``REPRO_JOBS``/
  ``REPRO_EXECUTOR``/``REPRO_CACHE``/``REPRO_CACHE_DIR``/``REPRO_SHARDS``
  environment variables).
"""

from .cache import CacheStats, ResultCache, cache_key, code_salt, default_cache_dir
from .config import configure, get_runner, reset_runner
from .core import SweepRunner, resolve_check_guarantees
from .exec import (
    Executor,
    ExecutorError,
    ExecutorFailure,
    LocalPoolExecutor,
    RemoteTaskError,
    SSHExecutor,
    SubprocessWorkerExecutor,
    make_executor,
)
from .sharded import ShardFold

__all__ = [
    "SweepRunner",
    "ShardFold",
    "Executor",
    "ExecutorError",
    "ExecutorFailure",
    "RemoteTaskError",
    "LocalPoolExecutor",
    "SubprocessWorkerExecutor",
    "SSHExecutor",
    "make_executor",
    "ResultCache",
    "CacheStats",
    "cache_key",
    "code_salt",
    "default_cache_dir",
    "configure",
    "get_runner",
    "reset_runner",
    "resolve_check_guarantees",
]
