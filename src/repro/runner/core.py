"""The sweep runner: serial or multi-process execution of scenario lists.

Scenarios are fully declarative and seeded, so each grid point is a pure
function of its :class:`~repro.workloads.scenarios.Scenario` -- independent of
execution order, host process and sibling scenarios.  That makes the sweep
embarrassingly parallel: the runner ships batches of scenarios to worker
processes and reassembles the results in input order, producing exactly the
table a serial run would.

Two consumption styles share one execution core:

* :meth:`SweepRunner.run_sweep` materializes the full result list (input
  order) -- the right tool when the caller post-processes results together.
* :meth:`SweepRunner.stream_sweep` is the incremental-consumer path: an
  ``on_result(index, result)`` reducer fires as each grid point completes and
  the runner retains nothing, so the parent process holds a bounded number of
  :class:`~repro.workloads.scenarios.ScenarioResult` objects regardless of
  sweep size.  Chunks are submitted in a bounded window (a few per worker),
  so neither pending futures nor completed-but-unconsumed ones can
  accumulate a sweep's worth of results.

Guarantees:

* Results are always returned in input order, bit-identical between
  ``jobs=1`` and ``jobs=N`` for the same scenarios (each scenario carries its
  own seed and the simulation never reads global RNG state).
* One planner serves every backend: it walks the sweep in input order, one
  window of :data:`MAX_CHUNK` cells at a time, emits cache hits, parks a
  repeat of a key still being computed on its first occurrence, splits
  replicated cells into shard units and cuts the rest into chunks.  A chunk
  is a block: one :func:`~repro.workloads.scenarios.run_scenarios` call,
  which hands its eligible metrics-level cells to the vector kernel
  together.  A key repeated while its first occurrence is computed counts
  as one miss and one store on every backend; a hit is read once per
  occurrence.
* In process (``jobs=1``, or a lone unsplit scenario on a local pool) each
  unit runs as soon as it is planned and the progress
  ``callback``/``on_result`` fires in input order, so at most one window of
  results is in flight (cells a block cannot take -- full traces above all
  -- are computed and emitted one at a time).  Shipped to a backend, units
  go out in a bounded window and ``on_result`` fires in completion order
  (still once per scenario, cache hits included).
* Batching (``chunk_size``) amortizes per-task pickling and scheduling
  overhead; the default targets a few chunks per worker so stragglers do not
  serialize the tail of the sweep.  A chunk never spans two windows.
* The execution backend is persistent: it spins up lazily on the first
  parallel sweep and is reused by every later one (experiment suites run many
  sweeps back to back), until :meth:`SweepRunner.close`.
* *Where* chunks run is pluggable (:mod:`repro.runner.exec`): the default
  ``pool`` backend is the historical in-process multiprocessing pool, while
  ``subprocess`` and ``ssh`` run the same chunk tasks on protocol workers
  behind a fault-tolerant scheduler (heartbeats, bounded retries of chunks
  lost to worker crashes, one shared pending queue).  Scenarios are pure functions of
  their declarative description, so backend choice -- and even a mid-sweep
  worker crash with retry -- never changes a result float.
* Replicated scenarios shard transparently: a grid point with
  ``Scenario.replications > 1`` is split along its resolved shard plan
  (:mod:`repro.runner.sharded`) into shard tasks that share the same pool and
  submission window as the plain grid work, and the per-shard summaries fold
  back into one result before ``on_result`` fires -- float-for-float
  identical to the serial fold, so grid parallelism and shard parallelism
  compose without a second pool or any value drift.
"""

from __future__ import annotations

import dataclasses
import math
import os
from concurrent.futures import FIRST_COMPLETED, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

from .. import obs
from ..sim.kernel import default_kernel
from ..workloads.scenarios import (
    TRACE_LEVELS,
    Scenario,
    ScenarioResult,
    resolve_check_guarantees,
    resolve_shards,
    run_scenarios,
)
from .cache import ResultCache, cache_key, code_salt
from .exec import EXECUTOR_SPECS, Executor, ExecutorFailure, ExecutorSpec, LocalPoolExecutor, make_executor
from .sharded import ShardFold, expand_shards, run_shard_chunk, shard_plan_for

#: ``check_guarantees`` as accepted by :meth:`SweepRunner.run_sweep`: one flag
#: for the whole sweep, or one per scenario.
CheckSpec = Union[None, bool, Sequence[Optional[bool]]]

#: ``trace_level`` as accepted by :meth:`SweepRunner.run_sweep`: one level for
#: the whole sweep, or one per scenario.
TraceSpec = Union[str, Sequence[str]]

#: Maximum scenarios per worker task; beyond this, batching stops paying for
#: itself and only hurts load balance.
MAX_CHUNK = 32

#: In-flight chunks per worker on the streaming path.  Bounds how many
#: results can sit in completed-but-unconsumed futures: the parent never
#: holds more than ``jobs * CHUNK_WINDOW * chunk_size`` results at once.
CHUNK_WINDOW = 2

#: An ``on_result`` reducer: receives the scenario's input index and its
#: result, in completion order.
OnResult = Callable[[int, "ScenarioResult"], None]


def _normalize_checks(scenarios: Sequence[Scenario], check_guarantees: CheckSpec) -> list[bool]:
    if check_guarantees is None or isinstance(check_guarantees, bool):
        return [resolve_check_guarantees(s, check_guarantees) for s in scenarios]
    checks = list(check_guarantees)
    if len(checks) != len(scenarios):
        raise ValueError(f"check_guarantees has {len(checks)} entries for {len(scenarios)} scenarios")
    return [resolve_check_guarantees(s, c) for s, c in zip(scenarios, checks)]


def _normalize_trace_levels(scenarios: Sequence[Scenario], trace_level: TraceSpec) -> list[str]:
    if isinstance(trace_level, str):
        levels = [trace_level] * len(scenarios)
    else:
        levels = list(trace_level)
        if len(levels) != len(scenarios):
            raise ValueError(f"trace_level has {len(levels)} entries for {len(scenarios)} scenarios")
    for level in levels:
        if level not in TRACE_LEVELS:
            raise ValueError(f"unknown trace_level {level!r}; expected one of {TRACE_LEVELS}")
    return levels


def _chunk_results(chunk: list[tuple[int, Scenario, bool, str]]) -> Iterator[tuple[int, ScenarioResult]]:
    """``(index, result)`` per cell, each run when asked for (``zip`` would keep the previous one alive)."""
    results = run_scenarios(cell[1:] for cell in chunk)
    for cell in chunk:
        yield cell[0], next(results)


def _run_chunk(chunk: list[tuple[int, Scenario, bool, str]]) -> list[tuple[int, ScenarioResult]]:
    """Worker task: run a batch of (index, scenario, check, trace_level) tuples as one block."""
    return list(_chunk_results(chunk))


def _in_order(emit: OnResult) -> OnResult:
    """``emit`` behind a gate that holds early arrivals until every lower index has passed."""
    held: dict[int, ScenarioResult] = {}
    due = 0

    def gate(index: int, result: ScenarioResult) -> None:
        nonlocal due
        held[index] = result
        while due in held:
            emit(due, held.pop(due))
            due += 1

    return gate


class _Sweep:
    """One sweep's plan and bookkeeping, whichever loop runs its units.

    :meth:`units` walks ``(scenario, check, level)`` cells in input order, one
    window of :data:`MAX_CHUNK` at a time: per cell it computes the key,
    parks a repeat of a key still being computed, emits a cache hit, splits a
    replicated cell into shard units or adds it to the open chunk, which
    leaves when it holds ``chunk`` cells or its window ends.  A unit is
    ``(task, payload, consume)``; ``consume(task(payload))`` finishes it.
    ``ship`` pins the resolved kernel and shard plan on the copies a unit
    carries, so a worker in another environment cannot re-resolve what the
    key was computed on; in process the caller's scenarios run as they are.
    """

    def __init__(self, cache: Optional[ResultCache], cells: list, emit: OnResult, ship: bool, chunk: int) -> None:
        self.cache = cache
        self.cells = cells
        self.emit = emit
        self.ship = ship
        self.chunk = chunk
        self.keys: dict[int, str] = {}  # index -> key, for cells being computed
        self.parked: dict[str, list[int]] = {}  # key being computed -> its repeats' indices
        self.folder = ShardFold()

    def units(self) -> Iterator[tuple[Callable, list, Callable]]:
        salt = code_salt()
        # REPRO_KERNEL's selection, read once, at the first cell leaving kernel unset.
        kernel = None
        run_chunk = _run_chunk if self.ship else _chunk_results
        for start in range(0, len(self.cells), MAX_CHUNK):
            piece: list[tuple[int, Scenario, bool, str]] = []
            for index, (scenario, check, level) in enumerate(self.cells[start : start + MAX_CHUNK], start):
                if kernel is None and scenario.kernel is None:
                    kernel = default_kernel()
                if self.cache is not None:
                    key = cache_key(scenario, check, trace_level=level, salt=salt, default_kernel=kernel)
                    if key in self.parked:
                        self.parked[key].append(index)
                        continue
                    hit = self.cache.get(key)
                    if hit is not None:
                        self.emit(index, self._as_asked(index, hit))
                        continue
                    self.parked[key] = []
                    self.keys[index] = key
                if self.ship and scenario.kernel is None:
                    scenario = dataclasses.replace(scenario, kernel=kernel)
                plan = shard_plan_for(scenario, level)
                if plan is not None:
                    self.folder.expect(index, scenario, len(plan), check)
                    for task in expand_shards(index, scenario, plan):
                        yield run_shard_chunk, [task], self._take_shards
                    continue
                if self.ship and scenario.replications > 1 and scenario.shards is None:
                    # The plan resolved to one shard *here*.
                    scenario = dataclasses.replace(scenario, shards=resolve_shards(scenario))
                piece.append((index, scenario, check, level))
                if len(piece) == self.chunk:
                    yield run_chunk, piece, self._take_chunk
                    piece = []
            if piece:
                yield run_chunk, piece, self._take_chunk

    def _take_chunk(self, pairs: Iterable[tuple[int, ScenarioResult]]) -> None:
        for index, result in pairs:
            self._finish(index, result)
            del result  # not held while the chunk's next cell runs

    def _take_shards(self, pairs: Iterable[tuple]) -> None:
        for index, outcome in pairs:
            result = self.folder.add(index, outcome)
            if result is not None:
                self._finish(index, result)

    def _finish(self, index: int, result: ScenarioResult) -> None:
        """A computed cell: store it, emit it, then serve the repeats parked on its key."""
        result = self._as_asked(index, result)
        key = self.keys.pop(index, None)
        if key is not None:
            self.cache.put(key, result)
        self.emit(index, result)
        for repeat in self.parked.pop(key, ()):
            self.emit(repeat, self._as_asked(repeat, result))

    def _as_asked(self, index: int, result: ScenarioResult) -> ScenarioResult:
        scenario = self.cells[index][0]
        if result.scenario != scenario:
            # The key ignores the cosmetic display name, and a shipped copy
            # may carry a pinned kernel or shard plan: hand back the scenario
            # the caller asked for.
            result = dataclasses.replace(result, scenario=scenario)
        return result


class SweepRunner:
    """Executes scenario sweeps serially or across worker processes.

    Parameters
    ----------
    jobs:
        Number of worker processes.  ``1`` (the default) runs in-process with
        exact historical ordering; ``0`` or ``None`` means "one per CPU".
    cache:
        A :class:`~repro.runner.cache.ResultCache`, or ``None`` to disable
        caching.
    chunk_size:
        Scenarios per worker task; ``None`` picks a size that gives every
        worker several chunks (bounded by :data:`MAX_CHUNK`).
    executor:
        The execution backend chunks run on: ``None``/``"pool"`` (the
        historical in-process pool), ``"subprocess"`` (local protocol
        workers with fault-tolerant scheduling), ``"ssh"`` (protocol workers
        on ``REPRO_SSH_HOSTS``), or a ready
        :class:`~repro.runner.exec.base.Executor` instance.  Spawned
        backends size themselves from ``jobs``; results are identical
        across backends by construction.
    """

    def __init__(
        self,
        jobs: Optional[int] = 1,
        cache: Optional[ResultCache] = None,
        chunk_size: Optional[int] = None,
        executor: ExecutorSpec = None,
    ) -> None:
        if jobs is None or jobs == 0:
            jobs = os.cpu_count() or 1
        if jobs < 0:
            raise ValueError(f"jobs must be non-negative, got {jobs}")
        if chunk_size is not None and chunk_size <= 0:
            raise ValueError(f"chunk_size must be positive, got {chunk_size}")
        self.jobs = jobs
        self.cache = cache
        self.chunk_size = chunk_size
        self.executor_spec = executor
        #: Scheduler counters absorbed from spec-spawned backends this runner
        #: has already dropped (see :meth:`executor_stats`).
        self._stats_total: dict = {}
        if isinstance(executor, Executor):
            self._executor: Optional[Executor] = executor
        else:
            if executor is not None and executor not in EXECUTOR_SPECS:
                raise ValueError(f"unknown executor {executor!r}; expected one of {EXECUTOR_SPECS}")
            self._executor = None

    # -- execution backend -------------------------------------------------

    @property
    def distributed(self) -> bool:
        """Whether chunks run through a remote wire protocol.

        Distributed backends route even single-worker and single-scenario
        traffic through the executor (exercising the wire format is the
        point); the local pool keeps the historical serial short-circuits.
        """
        if isinstance(self.executor_spec, Executor):
            return not isinstance(self.executor_spec, LocalPoolExecutor)
        return self.executor_spec not in (None, "pool")

    @property
    def worker_capacity(self) -> int:
        """The parallelism the configured backend offers.

        ``jobs`` for spec-named backends (they size themselves from it); the
        executor's own worker count when an instance was passed -- so
        ``SweepRunner(executor=LocalPoolExecutor(4))`` parallelizes even
        though ``jobs`` kept its default.
        """
        if isinstance(self.executor_spec, Executor):
            return self.executor_spec.worker_count
        return self.jobs

    def _ensure_executor(self) -> Executor:
        """The persistent execution backend (created lazily, reused across sweeps)."""
        if self._executor is None:
            self._executor = make_executor(self.executor_spec, workers=self.jobs)
        return self._executor

    @property
    def executor(self) -> Executor:
        """The live execution backend, spawning it lazily if needed.

        The public seam chaos harnesses and fleet observers hook: the
        instance returned is the one sweeps submit to (until :meth:`close`
        drops a spec-spawned backend).
        """
        return self._ensure_executor()

    def executor_stats(self) -> dict:
        """Cumulative scheduler counters across every backend this runner ran.

        Spec-named backends are dropped by :meth:`close` (the next sweep
        respawns); their counters are absorbed here first, so a
        close/respawn cycle -- or an :class:`ExecutorFailure` teardown --
        never zeroes the provenance a finished sweep reports.
        """
        totals = dict(self._stats_total)
        if self._executor is not None:
            for key, value in self._executor.stats().items():
                totals[key] = totals.get(key, 0) + value
        return totals

    def close(self) -> None:
        """Shut down the execution backend, reaping any worker processes.

        The backend respawns lazily on next use; an executor *instance*
        passed to the constructor is closed too (its own ``close`` is
        documented to allow respawn), so runner lifecycle == worker
        lifecycle either way.
        """
        if self._executor is not None:
            self._executor.close()
            if not isinstance(self.executor_spec, Executor):
                # The instance is about to be dropped: bank its counters so
                # executor_stats() stays cumulative across the respawn.
                for key, value in self._executor.stats().items():
                    self._stats_total[key] = self._stats_total.get(key, 0) + value
                self._executor = None

    def __enter__(self) -> "SweepRunner":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # -- execution ---------------------------------------------------------

    def run(
        self,
        scenario: Scenario,
        check_guarantees: Optional[bool] = None,
        trace_level: str = "metrics",
    ) -> ScenarioResult:
        """Run (or fetch from cache) a single scenario."""
        return self.run_sweep([scenario], check_guarantees=check_guarantees, trace_level=trace_level)[0]

    def run_sweep(
        self,
        scenarios: Iterable[Scenario],
        check_guarantees: CheckSpec = None,
        callback: Optional[Callable[[ScenarioResult], None]] = None,
        trace_level: TraceSpec = "metrics",
    ) -> list[ScenarioResult]:
        """Run every scenario and return the results in input order."""
        scenarios = list(scenarios)
        results: list[Optional[ScenarioResult]] = [None] * len(scenarios)

        def collect(index: int, result: ScenarioResult) -> None:
            results[index] = result
            if callback is not None:
                callback(result)

        self.stream_sweep(scenarios, collect, check_guarantees=check_guarantees, trace_level=trace_level)
        return results  # type: ignore[return-value]

    def stream_sweep(
        self,
        scenarios: Iterable[Scenario],
        on_result: OnResult,
        check_guarantees: CheckSpec = None,
        trace_level: TraceSpec = "metrics",
    ) -> int:
        """Run every scenario, folding each result into ``on_result`` as it lands.

        The incremental-consumer path: ``on_result(index, result)`` fires
        exactly once per scenario -- in input order with ``jobs=1``, in
        completion order otherwise (``index`` is always the scenario's input
        position) -- and the runner retains no result itself, so a reducer
        that folds rows and drops the result keeps parent memory O(1) in the
        sweep size.  Returns the number of scenarios run.
        """
        scenarios = list(scenarios)
        checks = _normalize_checks(scenarios, check_guarantees)
        levels = _normalize_trace_levels(scenarios, trace_level)
        for scenario, level in zip(scenarios, levels):
            if scenario.replications > 1 and level != "metrics":
                raise ValueError(
                    f"scenario {scenario.name!r} has replications={scenario.replications}, "
                    f"which requires trace_level='metrics' (full traces do not merge)"
                )
        if not scenarios:
            return 0
        # A lone scenario still goes to the pool when its shard plan splits:
        # one replicated configuration can saturate every worker by itself.
        # Distributed backends never take the serial shortcut -- routing the
        # work through the wire protocol is what they are for.
        single_unsplit = len(scenarios) == 1 and shard_plan_for(scenarios[0], levels[0]) is None
        in_process = (self.worker_capacity <= 1 or single_unsplit) and not self.distributed
        # The sweep span is ambient on this (the submitting) thread, so cache
        # events and the executor's per-task spans parent to it.
        with obs.span("runner.sweep") as sweep:
            sweep.set("mode", "serial" if in_process else "parallel")
            sweep.set("scenarios", len(scenarios))
            cells = list(zip(scenarios, checks, levels))
            if in_process:
                plan = _Sweep(self.cache, cells, _in_order(on_result), False, MAX_CHUNK)
                for task, payload, consume in plan.units():
                    consume(task(payload))
            else:
                # A few chunks per worker balances batching against stragglers.
                workers = min(max(1, self.worker_capacity), len(cells))
                chunk = self.chunk_size or min(MAX_CHUNK, math.ceil(len(cells) / (workers * 4)))
                self._ship(_Sweep(self.cache, cells, on_result, True, chunk))
        return len(scenarios)

    def _ship(self, plan: _Sweep) -> None:
        """Submit the plan's units to the backend as they are planned, a bounded window at a time."""
        executor: Optional[Executor] = None
        futures: set = set()
        consumers: dict = {}

        def drain(until: int) -> None:
            nonlocal futures
            while len(futures) > until:
                done, futures = wait(futures, return_when=FIRST_COMPLETED)
                for future in done:
                    consumers.pop(future)(future.result())

        try:
            # Keep a few units per worker in flight and drain completions
            # before submitting more, so at no point does the parent hold more
            # than O(window * chunk) results (or shard summaries) beyond the
            # partially-folded scenarios in flight.
            for task, payload, consume in plan.units():
                if executor is None:
                    executor = self._ensure_executor()
                    window = max(1, executor.worker_count) * CHUNK_WINDOW
                future = executor.submit(task, payload)
                futures.add(future)
                consumers[future] = consume
                drain(window - 1)
            drain(0)
        except (BrokenProcessPool, ExecutorFailure):
            # A dead pool worker poisons the whole local executor, and an
            # ExecutorFailure means the protocol backend exhausted its
            # retries (workers lost beyond recovery); either way, drop the
            # backend so the next sweep starts fresh instead of failing
            # forever.
            self.close()
            raise
        except BaseException:
            for future in futures:
                future.cancel()
            raise

    def __repr__(self) -> str:
        cache_dir = self.cache.directory if self.cache is not None else None
        spec = self.executor_spec if self.executor_spec is not None else "pool"
        return (
            f"SweepRunner(jobs={self.jobs}, cache={str(cache_dir)!r}, "
            f"chunk_size={self.chunk_size}, executor={spec!r})"
        )
