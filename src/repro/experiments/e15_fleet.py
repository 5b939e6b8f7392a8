"""E15 -- Fleet churn invariance.

E14 proved one killed worker costs nothing but time; this experiment proves
the *fleet* property the self-healing scheduler adds: a sweep survives
**continuous worker murder** -- a scripted chaos schedule that kills every
initial worker at least once -- because lost workers respawn, a chunk lost
in flight goes back to the front of the pending queue, and a replacement
takes the oldest pending chunk the moment it says hello.  Since every
scenario is a pure function of its declarative description, all that churn
may cost throughput but can never move a float: the sweep's results must
remain exactly the serial results.

Reproduced property:

* **Churn invariance** (E15a): a sweep on the subprocess backend under a
  deterministic kill schedule (one kill per initial worker, victims chosen
  by seeded RNG) completes without executor failure, reports the respawns in
  its scheduler stats, and is float-for-float identical to the serial path.
"""

from __future__ import annotations

from ..analysis.report import Table
from ..runner.core import SweepRunner
from ..runner.exec import ChaosController, ChaosSchedule, SubprocessWorkerExecutor
from .common import adversarial_scenario, default_params, replicated, results_exactly_equal

#: Aggressive fleet timings for the experiment's executors: losses are
#: detected within ~2s and replacements arrive within ~0.1s, so the churn
#: tables render in seconds instead of minutes.
_FAST_FLEET = dict(
    heartbeat_interval=0.1,
    heartbeat_timeout=2.0,
    respawn_backoff=0.05,
    respawn_backoff_cap=0.5,
    monitor_period=0.05,
)


def _sweep_scenarios(quick: bool) -> list:
    count = 6 if quick else 10
    rounds = 4 if quick else 8
    scenarios = [
        adversarial_scenario(
            default_params(5 + (index % 2) * 2, authenticated=True),
            "auth",
            attack="skew_max" if index % 2 else "eager",
            rounds=rounds,
            seed=1500 + index,
        )
        for index in range(count)
    ]
    scenarios.append(replicated(scenarios[0], 4, shards=2))
    return scenarios


def run_churn_invariance(quick: bool = True) -> Table:
    """E15a: every initial worker is killed mid-sweep; results do not move."""
    scenarios = _sweep_scenarios(quick)
    with SweepRunner(jobs=1, cache=None) as runner:
        reference = runner.run_sweep(scenarios, trace_level="metrics")

    workers = 2
    executor = SubprocessWorkerExecutor(workers, **_FAST_FLEET)
    schedule = ChaosSchedule.kill_every_worker(workers, stride=2, seed=15)
    with SweepRunner(jobs=workers, cache=None, executor=executor, chunk_size=1) as runner:
        with ChaosController(executor, schedule) as chaos:
            results = runner.run_sweep(scenarios, trace_level="metrics")
        stats = runner.executor_stats()

    identical = all(results_exactly_equal(result, ref) for result, ref in zip(results, reference))
    table = Table(
        title=(
            f"E15a: fleet churn invariance (subprocess backend, {workers} workers, "
            f"scripted schedule {schedule.events})"
        ),
        headers=[
            "chunks",
            "workers killed",
            "workers lost",
            "respawns",
            "rejoins",
            "chunk retries",
            "completed",
            "== serial",
        ],
    )
    table.add_row(
        len(scenarios) + 1,  # shard expansion: the replicated point adds a task
        len([pid for _, _, pid in chaos.fired if pid is not None]),
        stats["workers_lost"],
        stats["respawns"],
        stats["joins"],
        stats["retries"],
        len(results) == len(scenarios),
        identical,
    )
    table.add_note(
        "The chaos schedule SIGKILLs a never-before-hit worker after the 1st "
        "and 3rd completed chunks, so every member of the initial fleet dies "
        "mid-sweep; respawned replacements handshake, take the oldest pending "
        "chunks, and the sweep finishes float-identical to serial."
    )
    return table


def run_experiment(quick: bool = True) -> list[Table]:
    """The fleet table: churn invariance."""
    return [run_churn_invariance(quick)]
