"""E14 -- Executor-backend invariance and worker-crash recovery.

Like E13, this experiment validates the reproduction *system* rather than a
paper theorem: every scenario is a pure function of its declarative
description, so the distributed execution subsystem
(:mod:`repro.runner.exec`) must be unable to change any measured value --
whichever backend runs the chunks, however many workers it uses, and even
when a worker is killed mid-sweep and its chunks are retried elsewhere.

Reproduced properties:

* **Backend invariance** (E14a): the same sweep -- plain grid points plus a
  replicated, sharded configuration -- produces float-for-float identical
  results on the serial path, the in-process pool, and the subprocess wire
  backend at one and two workers.  The subprocess backend runs the full
  remote protocol (length-prefixed pickle frames over stdio, heartbeats,
  windowed scheduling), so this is the distribution guarantee exercised end
  to end on localhost.
* **Crash recovery** (E14b): a worker killed with SIGKILL in the middle of a
  sweep costs nothing but time -- the fault-tolerant scheduler retries the
  lost chunks on the surviving worker and the final results are still
  float-for-float identical to the serial path.
"""

from __future__ import annotations

import os
import signal

from ..analysis.report import Table
from ..runner.core import SweepRunner
from .common import adversarial_scenario, default_params, replicated, results_exactly_equal


def _sweep_scenarios(quick: bool) -> list:
    count = 4 if quick else 6
    rounds = 4 if quick else 8
    scenarios = [
        adversarial_scenario(
            default_params(5 + (index % 2) * 2, authenticated=True),
            "auth",
            attack="skew_max" if index % 2 else "eager",
            rounds=rounds,
            seed=1400 + index,
        )
        for index in range(count)
    ]
    scenarios.append(replicated(scenarios[0], 4, shards=2))
    return scenarios


def run_backend_invariance(quick: bool = True) -> Table:
    scenarios = _sweep_scenarios(quick)
    with SweepRunner(jobs=1, cache=None) as runner:
        reference = runner.run_sweep(scenarios)

    backends = [
        ("pool x2", dict(jobs=2, executor="pool")),
        ("subprocess x1", dict(jobs=1, executor="subprocess")),
        ("subprocess x2", dict(jobs=2, executor="subprocess")),
    ]
    table = Table(
        title=f"E14a: executor-backend invariance ({len(scenarios)} grid points, one replicated)",
        headers=["backend", "worst skew (max)", "messages (sum)", "eff. horizon (max)", "== serial"],
    )
    table.add_row(
        "serial",
        max(result.precision for result in reference),
        sum(result.total_messages for result in reference),
        max(result.effective_horizon for result in reference),
        True,
    )
    for label, kwargs in backends:
        with SweepRunner(cache=None, **kwargs) as runner:
            results = runner.run_sweep(scenarios)
        table.add_row(
            label,
            max(result.precision for result in results),
            sum(result.total_messages for result in results),
            max(result.effective_horizon for result in results),
            all(results_exactly_equal(result, ref) for result, ref in zip(results, reference)),
        )
    table.add_note(
        "Every backend must reproduce the serial results float-for-float; the "
        "subprocess rows run the remote wire protocol end to end on localhost."
    )
    return table


def run_crash_recovery(quick: bool = True) -> Table:
    scenarios = _sweep_scenarios(quick)[:-1]  # plain chunks only: one kill, many retries
    with SweepRunner(jobs=1, cache=None) as runner:
        reference = runner.run_sweep(scenarios)

    collected: dict = {}
    killed: list[int] = []
    with SweepRunner(jobs=2, cache=None, executor="subprocess", chunk_size=1) as runner:

        def collect(index, result) -> None:
            collected[index] = result
            if not killed:
                # First completion: SIGKILL a worker, preferably one that is
                # provably mid-chunk, and let the scheduler recover.
                executor = runner._executor  # noqa: SLF001 - deliberate fault injection
                pids = executor.busy_worker_pids() or executor.worker_pids()
                if pids:
                    os.kill(pids[0], signal.SIGKILL)
                    killed.append(pids[0])

        runner.stream_sweep(scenarios, collect)
        stats = runner._executor.stats()  # noqa: SLF001

    results = [collected[index] for index in range(len(scenarios))]
    identical = all(results_exactly_equal(result, ref) for result, ref in zip(results, reference))
    table = Table(
        title="E14b: worker-crash recovery (subprocess backend, 2 workers, SIGKILL mid-sweep)",
        headers=["chunks", "workers killed", "chunk retries", "completed", "== serial"],
    )
    table.add_row(len(scenarios), stats["workers_lost"], stats["retries"], len(results) == len(scenarios), identical)
    table.add_note(
        "The scheduler detects the killed worker via pipe EOF, requeues its "
        "in-flight chunk on the survivor (bounded attempts, the dead worker "
        "excluded) and the sweep finishes float-identical to the serial path."
    )
    return table


def run_experiment(quick: bool = True) -> list[Table]:
    return [run_backend_invariance(quick), run_crash_recovery(quick)]
