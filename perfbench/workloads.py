"""The six benchmark workloads: scenario builders and the loops that run them.

Every builder is a pure function of ``--seed`` (the program under test only
ever sees the generated :class:`~repro.workloads.scenarios.Scenario` lists),
and every workload is a closed loop with one client: the next sweep starts
when the previous one returned.  Each workload exists because it makes one
group of layers decide the result while leaving another group idle -- the
``why`` strings below are copied into ``BENCHMARK.json`` and the README.

A :class:`Workload` has three phases the harness times separately:
``setup()`` (build scenarios, construct runner / fleet / cache directory),
``run_pass(meter, sink)`` (one unit of measured work: each sweep is one timed
``meter`` segment and its results go to ``sink`` as ``Cell`` records between
segments, so checking them is never inside the measurement) and ``close()``.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Optional

from repro.experiments import EXPERIMENTS
from repro.experiments.common import adversarial_scenario, default_params, set_observer
from repro.runner.cache import ResultCache
from repro.runner.config import configure
from repro.runner.core import SweepRunner
from repro.workloads.scenarios import Scenario, ScenarioResult

from timing import Meter, spin, worker_spin

#: Experiments of the ``egrid_full`` pass, in registry order.  E14/E15 are
#: excluded on purpose: their wall time is scripted SIGKILLs and back-off
#: sleeps, not program speed, and the fleet has its own workload.
EGRID_IDS = tuple(f"E{i}" for i in range(1, 14))

#: Worker processes of the ``fleet_sharded`` workload.  Fixed, never derived
#: from the machine: a different worker count is a different workload.
FLEET_WORKERS = 2

#: Sweeps per ``fleet_sharded`` pass.
FLEET_SWEEPS = 5

#: Regenerations of the stored grid per ``cache_warm`` pass.
WARM_REGENERATIONS = 20

#: Replications of every vector configuration.
REPLICATIONS = 4


@dataclass(frozen=True)
class Cell:
    """One scenario result a pass obtained, tagged for reporting."""

    #: Stable id of the grid point inside its workload (``group/index``).
    cell_id: str
    result: ScenarioResult


def _scenario_seed(seed: int, slot: int) -> int:
    """The simulation seed of grid slot ``slot`` under workload seed ``seed``.

    Slots are spaced 64 apart so the ``seed .. seed + replications - 1`` seed
    blocks of replicated scenarios never overlap.
    """
    return seed * 100_003 + slot * 64


# -- scenario builders (pure functions of the seed) ------------------------------------


def event_mixed_groups(seed: int) -> dict:
    """``{group: (scenarios, trace_level)}`` of cells only the event loop serves."""
    slot = iter(range(10_000))

    def auth(n: int, rounds: int, **kwargs) -> Scenario:
        return adversarial_scenario(
            default_params(n, authenticated=True), "auth", attack="skew_max",
            rounds=rounds, seed=_scenario_seed(seed, next(slot)), **kwargs,
        )

    def echo(n: int, rounds: int, **kwargs) -> Scenario:
        return Scenario(
            params=default_params(n, authenticated=False), algorithm="echo", attack="two_faced",
            rounds=rounds, clock_mode="extreme", delay_mode="uniform",
            seed=_scenario_seed(seed, next(slot)), **kwargs,
        )

    auth_cells = [auth(n, rounds) for n, rounds in ((14, 8), (28, 5), (49, 3))]
    echo_cells = [echo(n, rounds) for n, rounds in ((13, 6), (25, 4), (37, 3))]
    return {
        # The same cells twice: once keeping the full trace (post-hoc
        # analysis), once streaming metrics on the event loop (the
        # parity-oracle use) -- so the recorder's two modes race per cell.
        "auth_full": (auth_cells, "full"),
        "auth_oracle": ([replace(s, kernel="event") for s in auth_cells], "metrics"),
        "auth_monotonic": ([auth(n, 6, monotonic=True) for n in (14, 28)], "metrics"),
        "startup_join": (
            [
                auth(n, 5, use_startup=True, boot_spread=0.05, joiner_count=1, join_time=2.5)
                for n in (14, 28)
            ],
            "full",
        ),
        "echo_full": (echo_cells, "full"),
        "echo_oracle": ([replace(s, kernel="event") for s in echo_cells], "metrics"),
        "baselines": (
            [
                Scenario(
                    params=default_params(n, authenticated=False), algorithm=algorithm,
                    rounds=8, clock_mode="extreme", delay_mode="uniform",
                    seed=_scenario_seed(seed, next(slot)),
                )
                for algorithm in ("lundelius_welch", "lamport_melliar_smith")
                for n in (13, 25)
            ],
            "full",
        ),
    }


def vector_configurations(seed: int, shards: int) -> list:
    """The 15 vector-whitelisted configurations, each replicated :data:`REPLICATIONS` times.

    Lockstep families (deterministic attacks, targeted/max delays, fixed or
    drifting clocks) and exact-replay families (uniform delays, randomized
    attacks, echo) are both present, at three sizes.
    """
    slot = iter(range(10_000))
    scenarios = []
    for n in (14, 28, 49):
        for attack, delay_mode, clock_mode in (
            ("skew_max", "targeted", "extreme"),
            ("random_two_faced", "uniform", "extreme"),
            ("eager", "max", "random"),
        ):
            scenarios.append(
                Scenario(
                    params=default_params(n, authenticated=True), algorithm="auth", attack=attack,
                    rounds=8, clock_mode=clock_mode, delay_mode=delay_mode,
                    replications=REPLICATIONS, shards=shards,
                    seed=_scenario_seed(seed, next(slot)),
                )
            )
    for n in (13, 25):
        for attack, delay_mode in (("skew_max", "targeted"), ("two_faced", "uniform"), ("forge_flood", "uniform")):
            scenarios.append(
                Scenario(
                    params=default_params(n, authenticated=False), algorithm="echo", attack=attack,
                    rounds=6, clock_mode="extreme", delay_mode=delay_mode,
                    replications=REPLICATIONS, shards=shards,
                    seed=_scenario_seed(seed, next(slot)),
                )
            )
    return scenarios


def fleet_sweeps(seed: int) -> dict:
    """``{sweep: scenarios}``: the sharded vector configurations and 24 event cells, dealt into sweeps.

    Every sweep holds three vector configurations in two shards each (six
    shard tasks) and four or five small ``kernel="event"`` cells.
    """
    vector = vector_configurations(seed, shards=2)
    small = [
        adversarial_scenario(
            default_params(7, authenticated=True), "auth", attack="skew_max", rounds=6,
            seed=_scenario_seed(seed, 1000 + index), kernel="event",
        )
        for index in range(24)
    ]
    return {f"sweep{k}": vector[k::FLEET_SWEEPS] + small[k::FLEET_SWEEPS] for k in range(FLEET_SWEEPS)}


def cache_groups(seed: int) -> dict:
    """``{group: scenarios}``: 180 cheap cells, auth n in {7, 10, 13} x three attacks x 20 seeds."""
    slot = iter(range(10_000))
    return {
        f"n{n}_{attack}": [
            adversarial_scenario(
                default_params(n, authenticated=True), "auth", attack=attack, rounds=6,
                seed=_scenario_seed(seed, next(slot)),
            )
            for _ in range(20)
        ]
        for n in (7, 10, 13)
        for attack in ("eager", "skew_max", "two_faced")
    }


# -- workloads ---------------------------------------------------------------------------

#: Receives the results of one timed segment, between segments.
Sink = Callable[[list], None]


class Workload:
    """Base: a named, seeded, closed-loop unit of benchmark work."""

    name = ""
    why = ""

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        #: ``[(label, scenarios, trace_level)]``: the sweeps of one pass in
        #: execution order, each one timed segment (empty for ``egrid_full``,
        #: whose inputs are the paper's fixed table set).
        self.groups: list = []
        #: The sweep runner the passes go through.
        self.runner: Optional[SweepRunner] = None

    def setup(self) -> None:
        """Build the inputs and construct whatever the passes run on."""
        raise NotImplementedError

    def run_pass(self, meter: Meter, sink: Sink) -> None:
        """One measured unit of work: every sweep once, one meter segment each."""
        for group, scenarios, level in self.groups:
            with meter.segment(group):
                results = self.runner.run_sweep(scenarios, trace_level=level)
            sink([Cell(f"{group}/{index}", result) for index, result in enumerate(results)])

    def reference_cells(self) -> list:
        """``(cell_id, scenario, trace_level)`` for every grid point of a pass."""
        return [
            (f"{group}/{index}", scenario, level)
            for group, scenarios, level in self.groups
            for index, scenario in enumerate(scenarios)
        ]

    def worker_pids(self) -> list:
        """PIDs of live worker processes whose CPU and memory belong to this workload."""
        return []

    def spin(self) -> float:
        """The calibration spin, run where this workload's simulation runs."""
        return spin()

    def close(self) -> None:
        """Reap whatever processes the runner spawned."""
        if self.runner is not None:
            self.runner.close()


class EgridFull(Workload):
    name = "egrid_full"
    why = (
        "Full (non-quick) E1-E13 regeneration, the ROADMAP headline: every layer in the "
        "proportion real use has; seed-independent (the paper's fixed table set)."
    )

    def setup(self) -> None:
        # The experiments run on the process-wide runner; pin it.
        self.runner = configure(jobs=1, use_cache=False, executor="pool")

    def run_pass(self, meter: Meter, sink: Sink) -> None:
        for exp_id in EGRID_IDS:
            observed: list = []
            set_observer(observed.append)
            try:
                with meter.segment(exp_id):
                    tables = EXPERIMENTS[exp_id].run(quick=False)
            finally:
                set_observer(None)
            if not tables or any(not table.rows for table in tables):
                raise RuntimeError(f"{exp_id} rendered an empty table")
            sink([Cell(f"{exp_id}/{index}", result) for index, result in enumerate(observed)])


class EventMixed(Workload):
    name = "event_mixed"
    why = (
        "Only cells the event loop must serve (full traces, kernel=event oracle runs, monotonic, "
        "start-up/join, baselines): sim.engine/events/network/crypto/recorder work, sim.vectorized idles."
    )

    def setup(self) -> None:
        # One sweep (and so one timed segment) per cell.
        self.groups = [
            (f"{group}.{index}", [cell], level)
            for group, (cells, level) in event_mixed_groups(self.seed).items()
            for index, cell in enumerate(cells)
        ]
        self.runner = SweepRunner(jobs=1)


class VectorReplicated(Workload):
    name = "vector_replicated"
    why = (
        "15 whitelisted configurations x 4 replications on the vector kernel (lockstep and exact replay) "
        "plus the merge algebra; the event loop idles, so an event-loop change must leave it flat."
    )

    def setup(self) -> None:
        # One sweep (and so one timed segment) per configuration.
        self.groups = [
            (f"{s.algorithm}{s.params.n}_{s.attack}", [s], "metrics")
            for s in vector_configurations(self.seed, shards=1)
        ]
        self.runner = SweepRunner(jobs=1)


class FleetSharded(Workload):
    name = "fleet_sharded"
    why = (
        "The vector configurations in 2 shards plus 24 small event-loop cells on a 2-worker subprocess "
        "fleet kept across passes: dispatch, framing, queueing, stealing and the shard fold decide it."
    )

    def setup(self) -> None:
        if (os.cpu_count() or 1) < FLEET_WORKERS:
            raise SystemExit(
                f"fleet_sharded needs at least {FLEET_WORKERS} CPUs (found {os.cpu_count()}); "
                "refusing to record a number that only measures time slicing"
            )
        self.groups = [(sweep, scenarios, "metrics") for sweep, scenarios in fleet_sweeps(self.seed).items()]
        self.runner = SweepRunner(jobs=FLEET_WORKERS, executor="subprocess")

    def worker_pids(self) -> list:
        return self.runner.executor.worker_pids()

    def spin(self) -> float:
        # On every worker at once: two busy vCPUs are not twice one busy vCPU.
        executor = self.runner.executor
        futures = [executor.submit(worker_spin, None) for _ in range(FLEET_WORKERS)]
        return sum(future.result(timeout=60) for future in futures) / FLEET_WORKERS


class CacheCold(Workload):
    name = "cache_cold"
    why = (
        "180 cheap cells into a fresh empty cache directory per pass: every key misses, simulates "
        "and stores -- the write path (cache_key + ResultCache.put)."
    )

    def setup(self) -> None:
        self.groups = [(group, cells, "metrics") for group, cells in cache_groups(self.seed).items()]
        # One cache object (its counters stay cumulative), re-pointed at a
        # fresh empty directory by every pass.
        self.runner = SweepRunner(jobs=1, cache=ResultCache(self.workdir / "cold-unused"))

    def run_pass(self, meter: Meter, sink: Sink) -> None:
        # A fresh directory per pass, left in place until the run's work
        # directory goes: deleting it here would queue journal work that the
        # next pass then pays for.  The sync drains what the previous pass
        # queued, so every pass starts from a flushed filesystem.
        directory = Path(tempfile.mkdtemp(prefix="cold-", dir=self.workdir))
        self.runner.cache.directory = directory
        os.sync()
        super().run_pass(meter, sink)


class CacheWarm(Workload):
    name = "cache_warm"
    why = (
        "The same 180 cells stored during set-up, regenerated 20 times per pass: every key hits and "
        "no simulation layer runs -- the read path, flat under any simulator change."
    )

    def setup(self) -> None:
        cells = [cell for group in cache_groups(self.seed).values() for cell in group]
        self.groups = [("cells", cells, "metrics")]
        directory = Path(tempfile.mkdtemp(prefix="warm-", dir=self.workdir))
        self.runner = SweepRunner(jobs=1, cache=ResultCache(directory))
        self.runner.run_sweep(cells, trace_level="metrics")  # store every entry

    def run_pass(self, meter: Meter, sink: Sink) -> None:
        _, scenarios, level = self.groups[0]
        for regeneration in range(WARM_REGENERATIONS):
            with meter.segment(f"regen{regeneration:02d}"):
                results = self.runner.run_sweep(scenarios, trace_level=level)
            sink([Cell(f"cells/{index}", result) for index, result in enumerate(results)])


WORKLOADS = {
    cls.name: cls for cls in (EgridFull, EventMixed, VectorReplicated, FleetSharded, CacheCold, CacheWarm)
}
