"""Write BENCH_PR10.json: the tracked perf baseline of the execution stack.

The canonical benchmark (successor of the PR-9 script) times a fixed
experiment grid three ways -- full trace (historical poll), metrics-only with
the static per-event round poll, and metrics-only with the adaptive horizon --
plus a shard-scaling grid (1/2/4 shards of a replicated largest cell through
the sharded backend), a backend-scaling grid (the same replicated cell on the
``pool`` and ``subprocess`` executor backends at 1/2/4 workers), a *recovery*
grid (the replicated cell as eight chunks on a two-worker self-healing
subprocess fleet under scripted chaos schedules that SIGKILL 0/1/3 workers
mid-sweep -- wall time, respawn counts and float parity against serial), a
kernel grid (the pure-Python event loop vs the batched NumPy vector kernel,
single-run and lane-batched, at the two largest E9 cells), a kernel *family*
grid (the families the PR-7 and PR-9 whitelist widenings admitted: the echo
algorithm, uniform delays, the randomized forge_flood and ``random_*``
attacks, drifting ``random``-mode clocks and zero-min ``min`` delays, event
loop vs the vector engines), a *telemetry* cell (the largest lane-batched
kernel cell run untraced and then with span tracing and the metrics registry
fully enabled -- float parity gated unconditionally, the traced wall clock
held within a few percent of untraced) and every reproduction experiment end
to end --
recording, via the experiments' result observer, which fraction of the E1-E15
scenario cells is statically vector-eligible under the current whitelist vs
the PR-6 and PR-7 ones.  CI's perf-smoke job runs it with ``--quick --gate``
and uploads the JSON as an artifact, so the bench trajectory is versioned
alongside the code.

Usage::

    python scripts/bench.py [--quick] [--output BENCH_PR10.json]
                            [--repeats N] [--gate]

Timings always run against a cold result cache (caching is disabled for the
measured runs), so they measure simulation + observation, not cache reads.
The horizon/shard/executor grids pin ``kernel="event"`` so they keep
measuring the event-loop paths they always measured; the kernel grid is
where the engines race.  Each grid cell reports the best of ``--repeats``
runs; the parity blocks assert the acceptance contracts -- adaptive metrics
values (including the window-rate extremes) are float-for-float equal to the
full-trace pipeline, sharded runs are float-for-float equal to the unsharded
fold, the subprocess wire backend is float-for-float equal to the pool
backend (and to the serial path) at every worker count, and the vector
kernel is float-for-float equal to the event loop (gated unconditionally,
with a speedup floor on multi-core runners).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import sys
import time
from pathlib import Path

from repro.experiments import EXPERIMENTS
from repro.experiments.common import (
    adversarial_scenario,
    default_params,
    results_exactly_equal,
    set_observer,
)
from repro.runner.config import configure as configure_runner
from repro.runner.core import SweepRunner
from repro.runner.exec import ChaosController, ChaosSchedule, SubprocessWorkerExecutor
from repro.sim.kernel import kernel_ineligibility
from repro.workloads.scenarios import _measure_streamed, _resolve_check, build_cluster, run_scenario

#: Adaptive-vs-baseline tolerance for the CI gate.  The adaptive and static
#: paths do nearly identical work per event (the static poll is an O(1)
#: incremental read since PR 3), so sub-second cells are dominated by
#: scheduler noise on shared CI runners; the timing gate therefore applies
#: only to the largest grid cell (most signal) and allows this much noise.
#: Value parity, by contrast, is deterministic and gated on every cell.
GATE_TOLERANCE = 1.25

#: The shard-scaling contract: 4 shards of the largest replicated cell must
#: beat the unsharded fold by this factor.  Only gated when the runner has at
#: least :data:`SHARD_GATE_MIN_CORES` cores (a 1-core box cannot speed up by
#: adding processes), and softened by :data:`GATE_TOLERANCE` against shared
#: CI runner noise; value parity is gated unconditionally.
SHARD_SPEEDUP_TARGET = 1.5
SHARD_GATE_MIN_CORES = 4

#: The kernel contract: on the largest E9 cell the vector kernel must beat
#: the event loop by this factor.  Value parity (vector == event,
#: float-for-float, and the vector kernel actually serving the cell rather
#: than falling back) is gated unconditionally; the speedup floor -- like the
#: shard gate -- only applies on runners with :data:`KERNEL_GATE_MIN_CORES`
#: cores and is softened by :data:`GATE_TOLERANCE` against CI noise.
KERNEL_SPEEDUP_TARGET = 5.0
KERNEL_GATE_MIN_CORES = 4

#: The same contract on the family grid, whose cells the exact-replay engine
#: serves.  That engine is a leaner event loop, not an array program, so its
#: lead is a ratio of two per-event constants and shrinks whenever the
#: reference loop gets faster: since PR 12 cut the reference loop's constant
#: by about a third the largest quick cells measure x3.1-x4.0 (x4.7-x5.8
#: before; forge_flood cells stay far above).  The floor still catches the
#: replay engine degrading to event-loop speed.
KERNEL_FAMILY_SPEEDUP_TARGET = 3.0

#: The recovery contract: with respawn on, a sweep that loses workers to a
#: scripted kill schedule must finish within this factor of the no-churn
#: wall time (softened by :data:`GATE_TOLERANCE` against CI noise).  Value
#: parity against the serial fold is gated unconditionally -- churn may cost
#: time but can never move a float.
RECOVERY_SLOWDOWN_LIMIT = 1.5

#: The telemetry contract: with span tracing and the metrics registry fully
#: enabled, the largest lane-batched kernel cell must finish within this
#: factor of its untraced wall time (softened by :data:`GATE_TOLERANCE`
#: against CI noise).  Value parity -- traced == untraced, float-for-float --
#: is gated unconditionally: telemetry observes, it never participates.
TELEMETRY_OVERHEAD_LIMIT = 1.05

#: Aggressive fleet timings for the recovery grid's executors: losses are
#: detected within ~2s and replacements arrive within ~0.1s, so the churned
#: cells measure recovery, not default production backoffs.
_RECOVERY_FLEET = dict(
    heartbeat_interval=0.1,
    heartbeat_timeout=2.0,
    respawn_backoff=0.05,
    respawn_backoff_cap=0.5,
    monitor_period=0.05,
)


def _pr6_statically_eligible(scenario, trace_level: str) -> bool:
    """Whether the PR-6 whitelist (pre-widening) admitted this scenario.

    PR 7 widened exactly three axes -- algorithm (``echo``), delay mode
    (``uniform``) and attack (``forge_flood``) -- so the old whitelist is the
    current one minus those admissions.
    """
    if kernel_ineligibility(scenario, trace_level) is not None:
        return False
    return (
        scenario.algorithm == "auth"
        and scenario.delay_mode != "uniform"
        and scenario.attack != "forge_flood"
        and _pr7_statically_eligible(scenario, trace_level)
    )


def _pr7_statically_eligible(scenario, trace_level: str) -> bool:
    """Whether the PR-7 whitelist (pre-PR-9 widening) admitted this scenario.

    PR 9 widened exactly three axes -- the ``random_*`` attack strategies,
    the drifting ``random`` clock mode and the ``min`` delay mode -- so the
    PR-7 whitelist is the current one minus those admissions.
    """
    if kernel_ineligibility(scenario, trace_level) is not None:
        return False
    return (
        scenario.attack not in ("random_silence", "random_two_faced", "random_laggard")
        and scenario.clock_mode != "random"
        and scenario.delay_mode != "min"
    )


def time_experiments(quick: bool) -> tuple[dict, dict]:
    """Time every experiment and record the E-grid vector-eligibility coverage.

    The passive result observer sees every scenario an experiment evaluates;
    each is classified against the current static whitelist and the PR-6 and
    PR-7 ones, so the summary carries a coverage stat the gate can hold
    strictly above the pre-widening (PR-7) baseline.
    """
    timings = {}
    observed: list = []

    def observe(result) -> None:
        observed.append((result.scenario, getattr(result, "trace_level", "full")))

    set_observer(observe)
    try:
        for exp_id, experiment in EXPERIMENTS.items():
            start = time.perf_counter()
            experiment.run(quick=quick)
            timings[exp_id] = {
                "claim": experiment.claim,
                "wall_time_s": round(time.perf_counter() - start, 4),
            }
    finally:
        set_observer(None)
    eligible = sum(
        1 for scenario, level in observed if kernel_ineligibility(scenario, level) is None
    )
    pr6_eligible = sum(
        1 for scenario, level in observed if _pr6_statically_eligible(scenario, level)
    )
    pr7_eligible = sum(
        1 for scenario, level in observed if _pr7_statically_eligible(scenario, level)
    )
    total = len(observed)
    coverage = {
        "total_cells": total,
        "eligible_cells": eligible,
        "pr6_eligible_cells": pr6_eligible,
        "pr7_eligible_cells": pr7_eligible,
        "coverage": round(eligible / total, 4) if total else 0.0,
        "pr6_coverage": round(pr6_eligible / total, 4) if total else 0.0,
        "pr7_coverage": round(pr7_eligible / total, 4) if total else 0.0,
    }
    return timings, coverage


def _best_of(repeats: int, fn):
    best_time = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best_time = min(best_time, time.perf_counter() - start)
    return best_time, result


def _run_pr2_style(scenario):
    """The PR-2 static-horizon path: poll an O(n) round scan after every event.

    Replicates (against today's recorder) exactly what ``run_until_round``
    cost before the incremental round tracking: a Python stop-condition
    closure that rescans every process's progress after each event.  This is
    the recorded baseline the adaptive horizon is measured against.
    """
    handles = build_cluster(scenario, trace_level="metrics")
    sim = handles.sim
    procs = sim.recorder._procs  # noqa: SLF001 - deliberate replica of the old scan
    target = scenario.rounds

    def pr2_poll(_sim) -> bool:
        worst = None
        for proc in procs.values():
            if proc.faulty:
                continue
            value = proc.max_round if proc.resync_count else 0
            if worst is None or value < worst:
                worst = value
        return (worst if worst is not None else 0) >= target

    sim.stop_condition = pr2_poll
    summary = sim.run_until(scenario.horizon())
    check = _resolve_check(scenario, None)
    return _measure_streamed(scenario, summary, check, stopped_early=sim.stopped_early)


def time_horizon_grid(quick: bool, repeats: int) -> dict:
    """Full vs metrics-static vs metrics-adaptive on an E9-style grid (to 6x n)."""
    rounds = 5 if quick else 12
    sizes = [7, 28] if quick else [7, 14, 28, 42]
    grid = {}
    for n in sizes:
        scenario = dataclasses.replace(
            adversarial_scenario(
                default_params(n, authenticated=True),
                "auth",
                attack="skew_max",
                rounds=rounds,
                seed=100 + n,
            ),
            kernel="event",  # this grid measures the event-loop paths
        )
        modes = {
            "full": lambda s=scenario: run_scenario(s, trace_level="full"),
            "metrics_pr2_poll": lambda s=scenario: _run_pr2_style(s),
            "metrics_static": lambda s=dataclasses.replace(scenario, adaptive_horizon=False): run_scenario(
                s, trace_level="metrics"
            ),
            "metrics_adaptive": lambda s=dataclasses.replace(scenario, adaptive_horizon=True): run_scenario(
                s, trace_level="metrics"
            ),
        }
        entry = {}
        results = {}
        for mode, runner in modes.items():
            wall, result = _best_of(repeats, runner)
            results[mode] = result
            entry[mode] = {
                "wall_time_s": round(wall, 4),
                "precision": result.precision,
                "completed_round": result.completed_round,
                "effective_horizon": result.effective_horizon,
                "total_messages": result.total_messages,
            }
        full, adaptive, pr2 = results["full"], results["metrics_adaptive"], results["metrics_pr2_poll"]
        full_acc, fast_acc = full.accuracy, adaptive.accuracy
        entry["parity"] = {
            "precision_exact": adaptive.precision == full.precision,
            "effective_horizon_exact": adaptive.effective_horizon == full.effective_horizon,
            "window_rates_exact": (
                full_acc is not None
                and fast_acc is not None
                and fast_acc.slowest_window_rate == full_acc.slowest_window_rate
                and fast_acc.fastest_window_rate == full_acc.fastest_window_rate
            ),
            "pr2_poll_exact": (
                adaptive.precision == pr2.precision
                and adaptive.effective_horizon == pr2.effective_horizon
                and adaptive.completed_round == pr2.completed_round
            ),
        }
        adaptive_wall = max(entry["metrics_adaptive"]["wall_time_s"], 1e-9)
        entry["speedup_pr2_over_adaptive"] = round(
            entry["metrics_pr2_poll"]["wall_time_s"] / adaptive_wall, 3
        )
        entry["speedup_static_over_adaptive"] = round(
            entry["metrics_static"]["wall_time_s"] / adaptive_wall, 3
        )
        entry["speedup_full_over_adaptive"] = round(entry["full"]["wall_time_s"] / adaptive_wall, 3)
        grid[f"n={n}"] = entry
    return {"rounds": rounds, "repeats": repeats, "grid": grid}


def time_shard_grid(quick: bool, repeats: int) -> dict:
    """Sharded vs unsharded wall clock and value parity on the largest cell.

    The cell is the horizon grid's largest system replicated 8 times; shard
    plans 1 (the unsharded in-process fold), 2 and 4 run the same
    replications through the sharded backend's worker pool.  Pools are
    persistent across the ``repeats`` (best-of excludes spawn cost), mirroring
    how experiment suites reuse one pool across many sweeps.
    """
    n = 28 if quick else 42
    rounds = 5 if quick else 12
    replications = 8
    base = dataclasses.replace(
        adversarial_scenario(
            default_params(n, authenticated=True),
            "auth",
            attack="skew_max",
            rounds=rounds,
            seed=100 + n,
        ),
        kernel="event",  # this grid measures event-loop shard scaling
    )
    grid = {}
    results = {}
    for shards in (1, 2, 4):
        scenario = dataclasses.replace(base, replications=replications, shards=shards, name="")
        if shards == 1:
            wall, result = _best_of(repeats, lambda s=scenario: run_scenario(s, trace_level="metrics"))
        else:
            with SweepRunner(jobs=shards) as runner:
                wall, result = _best_of(
                    repeats, lambda s=scenario: runner.run(s, trace_level="metrics")
                )
        results[shards] = result
        grid[f"shards={shards}"] = {
            "wall_time_s": round(wall, 4),
            "shard_count": result.shard_count,
            "precision": result.precision,
            "completed_round": result.completed_round,
            "effective_horizon": result.effective_horizon,
            "total_messages": result.total_messages,
        }
    reference = results[1]
    for shards, result in results.items():
        ref_acc, acc = reference.accuracy, result.accuracy
        grid[f"shards={shards}"]["parity"] = {
            "values_exact": (
                result.precision == reference.precision
                and result.precision_overall == reference.precision_overall
                and result.acceptance_spread == reference.acceptance_spread
                and result.completed_round == reference.completed_round
                and result.total_messages == reference.total_messages
                and result.effective_horizon == reference.effective_horizon
            ),
            "window_rates_exact": (
                ref_acc is not None
                and acc is not None
                and acc.slowest_window_rate == ref_acc.slowest_window_rate
                and acc.fastest_window_rate == ref_acc.fastest_window_rate
            ),
        }
    unsharded_wall = grid["shards=1"]["wall_time_s"]
    for shards in (2, 4):
        wall = max(grid[f"shards={shards}"]["wall_time_s"], 1e-9)
        grid[f"shards={shards}"]["speedup_vs_unsharded"] = round(unsharded_wall / wall, 3)
    return {
        "n": n,
        "rounds": rounds,
        "replications": replications,
        "repeats": repeats,
        "cpu_count": os.cpu_count(),
        "grid": grid,
    }


def _result_cell(wall: float, result) -> dict:
    return {
        "wall_time_s": round(wall, 4),
        "shard_count": result.shard_count,
        "precision": result.precision,
        "completed_round": result.completed_round,
        "effective_horizon": result.effective_horizon,
        "total_messages": result.total_messages,
    }


def time_executor_grid(quick: bool, repeats: int) -> dict:
    """Backend scaling: pool vs subprocess at 1/2/4 workers, value parity gated.

    The cell is the shard grid's replicated largest system; each backend runs
    it with the shard plan pinned to its worker count, so the same work
    distributes across however many workers the backend has.  The subprocess
    rows exercise the full remote wire protocol (framing, heartbeats,
    fault-tolerant scheduling) on localhost; the contract is that every
    backend row is float-for-float identical to the serial fold -- wall
    clock is reported, not gated, because the wire adds real (bounded)
    overhead that CI runners measure too noisily.
    """
    n = 28 if quick else 42
    rounds = 5 if quick else 12
    replications = 8
    base = dataclasses.replace(
        adversarial_scenario(
            default_params(n, authenticated=True),
            "auth",
            attack="skew_max",
            rounds=rounds,
            seed=100 + n,
        ),
        kernel="event",  # this grid measures event-loop backend scaling
    )
    serial = run_scenario(
        dataclasses.replace(base, replications=replications, shards=1, name=""), trace_level="metrics"
    )
    grid: dict = {}
    results: dict = {}
    for backend in ("pool", "subprocess"):
        for workers in (1, 2, 4):
            scenario = dataclasses.replace(base, replications=replications, shards=workers, name="")
            with SweepRunner(jobs=workers, cache=None, executor=backend) as runner:
                wall, result = _best_of(repeats, lambda s=scenario, r=runner: r.run(s, trace_level="metrics"))
            label = f"{backend}-w{workers}"
            results[label] = result
            grid[label] = _result_cell(wall, result)
            grid[label]["parity"] = {"values_exact_vs_serial": results_exactly_equal(result, serial)}
    for workers in (1, 2, 4):
        grid[f"subprocess-w{workers}"]["parity"]["values_exact_vs_pool"] = results_exactly_equal(
            results[f"subprocess-w{workers}"], results[f"pool-w{workers}"]
        )
        pool_wall = max(grid[f"pool-w{workers}"]["wall_time_s"], 1e-9)
        grid[f"subprocess-w{workers}"]["overhead_vs_pool"] = round(
            grid[f"subprocess-w{workers}"]["wall_time_s"] / pool_wall, 3
        )
    return {
        "n": n,
        "rounds": rounds,
        "replications": replications,
        "repeats": repeats,
        "cpu_count": os.cpu_count(),
        "grid": grid,
    }


def time_recovery_grid(quick: bool, repeats: int) -> dict:
    """Self-healing recovery: the same sweep under 0/1/3 injected worker kills.

    Every cell runs the replicated largest system as eight shard chunks on a
    two-worker subprocess fleet with aggressive recovery timings; the chaos
    schedule SIGKILLs a live worker after the 1st (and 3rd, and 5th) completed
    chunk.  Parity against the serial fold is gated unconditionally -- churn
    can cost wall clock but can never move a float -- and with respawn on,
    the churned cells must stay within :data:`RECOVERY_SLOWDOWN_LIMIT` of the
    no-churn cell (softened by the usual noise tolerance): recovery is
    measured in requeued chunks and respawn backoff, not in lost sweeps.
    """
    n = 24 if quick else 36
    rounds = 6 if quick else 10
    shards = 8
    base = dataclasses.replace(
        adversarial_scenario(
            default_params(n, authenticated=True),
            "auth",
            attack="skew_max",
            rounds=rounds,
            seed=800 + n,
        ),
        kernel="event",  # the recovery grid measures the event-loop wire path
    )
    scenario = dataclasses.replace(base, replications=shards, shards=shards, name="")
    serial = run_scenario(
        dataclasses.replace(base, replications=shards, shards=1, name=""), trace_level="metrics"
    )
    grid: dict = {}
    for kills in (0, 1, 3):
        schedule_spec = ",".join(f"kill@{1 + 2 * index}" for index in range(kills))
        best_wall = None
        best_result = None
        best_stats: dict = {}
        for _ in range(max(1, repeats)):
            # Fresh executor per repeat: each chaos schedule murders workers
            # once, so reusing the fleet would give later repeats a head start.
            executor = SubprocessWorkerExecutor(2, **_RECOVERY_FLEET)
            with SweepRunner(jobs=2, cache=None, executor=executor, chunk_size=1) as runner:
                start = time.perf_counter()
                if kills:
                    schedule = ChaosSchedule.parse(schedule_spec, seed=42 + kills)
                    with ChaosController(executor, schedule):
                        result = runner.run(scenario, trace_level="metrics")
                else:
                    result = runner.run(scenario, trace_level="metrics")
                wall = time.perf_counter() - start
                stats = runner.executor_stats()
            if best_wall is None or wall < best_wall:
                best_wall, best_result, best_stats = wall, result, stats
        label = f"kills={kills}"
        grid[label] = _result_cell(best_wall, best_result)
        grid[label]["fleet"] = {
            key: best_stats[key] for key in ("workers_lost", "respawns", "retries", "joins")
        }
        grid[label]["parity"] = {"values_exact_vs_serial": results_exactly_equal(best_result, serial)}
    no_churn = max(grid["kills=0"]["wall_time_s"], 1e-9)
    for kills in (1, 3):
        grid[f"kills={kills}"]["slowdown_vs_no_churn"] = round(
            grid[f"kills={kills}"]["wall_time_s"] / no_churn, 3
        )
    return {
        "n": n,
        "rounds": rounds,
        "shards": shards,
        "workers": 2,
        "repeats": repeats,
        "cpu_count": os.cpu_count(),
        "grid": grid,
    }


def time_kernel_grid(quick: bool, repeats: int) -> dict:
    """Event loop vs vector kernel at the two largest E9 cells, parity gated.

    Single-run rows race the engines head to head; the ``lanes`` rows run the
    cell replicated 8 times -- the event loop serially, the vector kernel
    lane-batched (all replications stepped in lockstep as array lanes inside
    one shard).  ``vector_served`` asserts the vector rows were actually
    evaluated by the vector kernel (no silent fallback): a fallback would
    still be value-identical, which is exactly why it must be detected
    explicitly rather than through the numbers.
    """
    from repro.sim.vectorized import run_lanes

    rounds = 5 if quick else 12
    sizes = [7, 28] if quick else [28, 42]
    replications = 8
    grid: dict = {}
    for n in sizes:
        base = adversarial_scenario(
            default_params(n, authenticated=True),
            "auth",
            attack="skew_max",
            rounds=rounds,
            seed=100 + n,
        )
        single = {
            "event": dataclasses.replace(base, kernel="event"),
            "vector": dataclasses.replace(base, kernel="vector"),
        }
        entry: dict = {}
        results: dict = {}
        for mode, scenario in single.items():
            wall, result = _best_of(repeats, lambda s=scenario: run_scenario(s, trace_level="metrics"))
            results[mode] = result
            entry[mode] = _result_cell(wall, result)
        served = run_lanes([single["vector"]])[0].fallback is None
        lanes = {
            "event_lanes": dataclasses.replace(
                base, kernel="event", replications=replications, shards=1, name=""
            ),
            "vector_lanes": dataclasses.replace(
                base, kernel="vector", replications=replications, shards=1, name=""
            ),
        }
        for mode, scenario in lanes.items():
            wall, result = _best_of(repeats, lambda s=scenario: run_scenario(s, trace_level="metrics"))
            results[mode] = result
            entry[mode] = _result_cell(wall, result)
        entry["parity"] = {
            "vector_exact": results_exactly_equal(results["vector"], results["event"]),
            "lanes_exact": results_exactly_equal(results["vector_lanes"], results["event_lanes"]),
            "vector_served": served,
        }
        vector_wall = max(entry["vector"]["wall_time_s"], 1e-9)
        lanes_wall = max(entry["vector_lanes"]["wall_time_s"], 1e-9)
        entry["speedup_event_over_vector"] = round(entry["event"]["wall_time_s"] / vector_wall, 3)
        entry["speedup_lanes"] = round(entry["event_lanes"]["wall_time_s"] / lanes_wall, 3)
        grid[f"n={n}"] = entry
    return {
        "rounds": rounds,
        "replications": replications,
        "repeats": repeats,
        "cpu_count": os.cpu_count(),
        "grid": grid,
    }


def time_telemetry_grid(quick: bool, repeats: int) -> dict:
    """Traced vs untraced on the largest lane-batched kernel cell.

    The telemetry layer must be free to leave on: the same scenario is timed
    with ``repro.obs`` fully off and then with span tracing plus the metrics
    registry enabled, and the two results must be float-identical --
    telemetry reads no simulated clock and consumes no seeded RNG stream, so
    any drift is a bug, not noise.  The wall-clock ratio feeds
    :func:`check_telemetry_gate`.
    """
    from repro import obs

    n = 28 if quick else 42
    rounds = 5 if quick else 12
    replications = 8
    scenario = dataclasses.replace(
        adversarial_scenario(
            default_params(n, authenticated=True),
            "auth",
            attack="skew_max",
            rounds=rounds,
            seed=100 + n,
        ),
        kernel="vector",
        replications=replications,
        shards=1,
        name="",
    )
    untraced_wall, untraced = _best_of(repeats, lambda: run_scenario(scenario, trace_level="metrics"))
    span_counts: list = []

    def traced_run():
        obs.enable()
        try:
            result = run_scenario(scenario, trace_level="metrics")
            span_counts.append(len(obs.tracer().all_spans()))
            return result
        finally:
            obs.disable()

    traced_wall, traced = _best_of(repeats, traced_run)
    entry = {
        "untraced": _result_cell(untraced_wall, untraced),
        "traced": _result_cell(traced_wall, traced),
        "spans": max(span_counts),
        "parity": {"traced_exact": results_exactly_equal(traced, untraced)},
        "overhead_traced_over_untraced": round(traced_wall / max(untraced_wall, 1e-9), 3),
    }
    return {
        "rounds": rounds,
        "replications": replications,
        "repeats": repeats,
        "cpu_count": os.cpu_count(),
        "grid": {f"n={n}": entry},
    }


#: The families the PR-7 and PR-9 widenings admitted, each raced event vs
#: vector: label -> (algorithm, attack, delay_mode, clock_mode).
KERNEL_FAMILY_CELLS = {
    "echo": ("echo", "skew_max", "targeted", "extreme"),
    "uniform": ("auth", "skew_max", "uniform", "extreme"),
    "forge_flood": ("auth", "forge_flood", "targeted", "extreme"),
    "echo-uniform-flood": ("echo", "forge_flood", "uniform", "extreme"),
    "random-silence": ("auth", "random_silence", "targeted", "extreme"),
    "random-two-faced": ("auth", "random_two_faced", "targeted", "extreme"),
    "drifting": ("auth", "two_faced", "targeted", "random"),
    "min-delay": ("auth", "skew_max", "min", "extreme"),
    "laggard-drift-min": ("auth", "random_laggard", "min", "random"),
}


def time_kernel_family_grid(quick: bool, repeats: int) -> dict:
    """Event loop vs the vector engines on the PR-7/PR-9 widened families.

    One cell per newly eligible family -- PR 7's echo broadcast, uniform
    delays and randomized forge_flood, plus PR 9's ``random_*`` attack
    strategies, drifting (``random``-mode) clocks and zero-min ``min``
    delays, including a cell stacking all three PR-9 axes -- at two system
    sizes.  ``vector_served`` reads the result's kernel provenance, so a
    silent fallback -- value-identical by design -- still fails the gate.
    Parity is gated unconditionally; the x3 speedup floor
    (:data:`KERNEL_FAMILY_SPEEDUP_TARGET`) applies to each family's largest
    cell on multi-core runners.  The quick sizes top out
    at ``n = 20`` (not 16 like the kernel grid): the drifting and stacked
    PR-9 cells pay a per-lane Python cost reconstructing clock
    trajectories, so the smallest cells sit near the gate floor and the
    largest needs the event loop's O(n^2) growth for a stable margin.
    """
    rounds = 5 if quick else 10
    sizes = [10, 20] if quick else [16, 28]
    grid: dict = {}
    for label, (algorithm, attack, delay_mode, clock_mode) in KERNEL_FAMILY_CELLS.items():
        for n in sizes:
            base = dataclasses.replace(
                adversarial_scenario(
                    default_params(n, authenticated=(algorithm == "auth")),
                    algorithm,
                    attack=attack,
                    rounds=rounds,
                    seed=100 + n,
                ),
                delay_mode=delay_mode,
                clock_mode=clock_mode,
            )
            entry: dict = {}
            results: dict = {}
            for mode in ("event", "vector"):
                scenario = dataclasses.replace(base, kernel=mode)
                wall, result = _best_of(
                    repeats, lambda s=scenario: run_scenario(s, trace_level="metrics")
                )
                results[mode] = result
                entry[mode] = _result_cell(wall, result)
            provenance = results["vector"].kernel_provenance
            entry["parity"] = {
                "vector_exact": results_exactly_equal(results["vector"], results["event"]),
                "vector_served": provenance is not None and provenance.vector_lanes == 1,
            }
            vector_wall = max(entry["vector"]["wall_time_s"], 1e-9)
            entry["speedup_event_over_vector"] = round(
                entry["event"]["wall_time_s"] / vector_wall, 3
            )
            grid[f"{label}/n={n}"] = entry
    return {
        "rounds": rounds,
        "repeats": repeats,
        "cpu_count": os.cpu_count(),
        "grid": grid,
    }


def check_kernel_family_gate(family_grid: dict) -> list[str]:
    """Parity and actually-served on every family cell; x3 on the largest."""
    failures = []
    for label, entry in family_grid["grid"].items():
        for name, ok in entry["parity"].items():
            if not ok:
                failures.append(f"kernel family {label}: parity check {name} failed")
    cores = family_grid.get("cpu_count") or 1
    if cores >= KERNEL_GATE_MIN_CORES:
        required = KERNEL_FAMILY_SPEEDUP_TARGET / GATE_TOLERANCE
        for family in KERNEL_FAMILY_CELLS:
            labels = [label for label in family_grid["grid"] if label.startswith(f"{family}/")]
            largest = max(labels, key=lambda label: int(label.split("=")[1]))
            speedup = family_grid["grid"][largest]["speedup_event_over_vector"]
            if speedup < required:
                failures.append(
                    f"kernel family {largest}: speedup x{speedup} below x{required:.2f} "
                    f"(target x{KERNEL_FAMILY_SPEEDUP_TARGET}, tolerance x{GATE_TOLERANCE}, {cores} cores)"
                )
    return failures


def check_coverage_gate(coverage: dict) -> list[str]:
    """The widened whitelist must cover strictly more E-grid cells than PR 7."""
    if coverage["eligible_cells"] <= coverage["pr7_eligible_cells"]:
        return [
            f"kernel coverage: {coverage['eligible_cells']}/{coverage['total_cells']} "
            f"eligible cells is not strictly above the PR-7 whitelist's "
            f"{coverage['pr7_eligible_cells']}"
        ]
    return []


def check_kernel_gate(kernel_grid: dict) -> list[str]:
    """Vector parity (and actually-served) unconditionally; speedup on big boxes."""
    failures = []
    for label, entry in kernel_grid["grid"].items():
        for name, ok in entry["parity"].items():
            if not ok:
                failures.append(f"kernel {label}: parity check {name} failed")
    cores = kernel_grid.get("cpu_count") or 1
    if cores >= KERNEL_GATE_MIN_CORES:
        labels = list(kernel_grid["grid"])
        largest = max(labels, key=lambda label: int(label.split("=")[1]))
        speedup = kernel_grid["grid"][largest]["speedup_event_over_vector"]
        required = KERNEL_SPEEDUP_TARGET / GATE_TOLERANCE
        if speedup < required:
            failures.append(
                f"kernel {largest}: speedup x{speedup} below x{required:.2f} "
                f"(target x{KERNEL_SPEEDUP_TARGET}, tolerance x{GATE_TOLERANCE}, {cores} cores)"
            )
    return failures


def check_telemetry_gate(telemetry_grid: dict) -> list[str]:
    """Traced runs must equal untraced float-exact and stay within the overhead limit.

    Parity and span presence are gated unconditionally; the timing bound is
    :data:`TELEMETRY_OVERHEAD_LIMIT`, softened by :data:`GATE_TOLERANCE`.
    """
    failures = []
    for label, entry in telemetry_grid["grid"].items():
        for name, ok in entry["parity"].items():
            if not ok:
                failures.append(f"telemetry {label}: parity check {name} failed")
        if not entry["spans"]:
            failures.append(f"telemetry {label}: traced run produced no spans")
        limit = TELEMETRY_OVERHEAD_LIMIT * GATE_TOLERANCE
        overhead = entry["overhead_traced_over_untraced"]
        if overhead > limit:
            failures.append(
                f"telemetry {label}: traced x{overhead} over untraced exceeds x{limit:.3f} "
                f"(limit x{TELEMETRY_OVERHEAD_LIMIT}, tolerance x{GATE_TOLERANCE})"
            )
    return failures


def check_executor_gate(executor_grid: dict) -> list[str]:
    """Backend value parity is deterministic and gated unconditionally."""
    failures = []
    for label, entry in executor_grid["grid"].items():
        for name, ok in entry["parity"].items():
            if not ok:
                failures.append(f"{label}: parity check {name} failed")
    return failures


def check_recovery_gate(recovery_grid: dict) -> list[str]:
    """Churned sweeps must equal serial float-for-float and recover by respawn.

    Value parity is gated unconditionally.  Every killed cell must report at
    least one respawn (recovery must replace workers, not just shrink), and
    its wall time must stay within :data:`RECOVERY_SLOWDOWN_LIMIT` of the
    no-churn cell, softened by :data:`GATE_TOLERANCE`.
    """
    failures = []
    for label, entry in recovery_grid["grid"].items():
        for name, ok in entry["parity"].items():
            if not ok:
                failures.append(f"recovery {label}: parity check {name} failed")
        kills = int(label.split("=")[1])
        if kills:
            if entry["fleet"]["respawns"] < 1:
                failures.append(
                    f"recovery {label}: expected at least one respawn, "
                    f"saw {entry['fleet']['respawns']}"
                )
            slowdown = entry["slowdown_vs_no_churn"]
            limit = RECOVERY_SLOWDOWN_LIMIT * GATE_TOLERANCE
            if slowdown > limit:
                failures.append(
                    f"recovery {label}: slowdown x{slowdown} above x{limit:.3f} "
                    f"(limit x{RECOVERY_SLOWDOWN_LIMIT}, tolerance x{GATE_TOLERANCE})"
                )
    return failures


def check_gate(horizon_grid: dict) -> list[str]:
    """Adaptive-horizon metrics runs must be at least as fast as static ones."""
    failures = []
    labels = list(horizon_grid["grid"])
    # Timing is gated on the largest cell only; tiny cells are pure noise.
    timing_label = max(labels, key=lambda label: int(label.split("=")[1]))
    for label, entry in horizon_grid["grid"].items():
        if label == timing_label:
            adaptive = entry["metrics_adaptive"]["wall_time_s"]
            for baseline in ("metrics_static", "metrics_pr2_poll"):
                wall = entry[baseline]["wall_time_s"]
                if adaptive > wall * GATE_TOLERANCE:
                    failures.append(
                        f"{label}: adaptive {adaptive:.4f}s slower than {baseline} {wall:.4f}s "
                        f"(tolerance x{GATE_TOLERANCE})"
                    )
        for name, ok in entry["parity"].items():
            if not ok:
                failures.append(f"{label}: parity check {name} failed")
    return failures


def check_shard_gate(shard_grid: dict) -> list[str]:
    """Sharded runs must equal the unsharded fold; 4 shards must be faster.

    Value parity is gated unconditionally (it is deterministic).  The
    speedup gate only applies on runners with enough cores for sharding to
    pay, and allows the usual noise tolerance.
    """
    failures = []
    for label, entry in shard_grid["grid"].items():
        for name, ok in entry["parity"].items():
            if not ok:
                failures.append(f"{label}: parity check {name} failed")
    cores = shard_grid.get("cpu_count") or 1
    if cores >= SHARD_GATE_MIN_CORES:
        speedup = shard_grid["grid"]["shards=4"]["speedup_vs_unsharded"]
        required = SHARD_SPEEDUP_TARGET / GATE_TOLERANCE
        if speedup < required:
            failures.append(
                f"shards=4: speedup x{speedup} below x{required:.2f} "
                f"(target x{SHARD_SPEEDUP_TARGET}, tolerance x{GATE_TOLERANCE}, {cores} cores)"
            )
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="small grids (CI smoke)")
    parser.add_argument("--output", default="BENCH_PR10.json", help="output path")
    parser.add_argument("--repeats", type=int, default=3, help="runs per grid cell (best-of)")
    parser.add_argument(
        "--gate",
        "--fail-if-adaptive-slower",
        action="store_true",
        dest="gate",
        help="exit non-zero unless adaptive-horizon metrics runs are at least as fast as "
        "static-horizon runs, sharded runs are value-identical to the unsharded fold "
        "(and, on multi-core runners, at least 1.5x faster at 4 shards), the subprocess "
        "executor backend is value-identical to the pool backend and the serial path at "
        "every worker count, sweeps under scripted worker kills recover by respawn, stay "
        "value-identical to serial and finish within 1.5x of the no-churn wall time, "
        "the vector kernel is value-identical to the event loop and "
        "actually serves the kernel grid and the widened family grid (and, on multi-core "
        "runners, at least 5x faster on the largest kernel-grid cell and 3x on the largest "
        "family cells), the E-grid vector-eligibility "
        "coverage is strictly above the PR-7 whitelist's, telemetry-enabled runs are "
        "value-identical to untraced runs and within the telemetry overhead limit, and "
        "every value-parity check is float-exact",
    )
    args = parser.parse_args()

    # Cold-cache, serial timings: measure the work, not the cache or the pool.
    configure_runner(jobs=1, use_cache=False)

    horizon_grid = time_horizon_grid(args.quick, args.repeats)
    shard_grid = time_shard_grid(args.quick, args.repeats)
    executor_grid = time_executor_grid(args.quick, args.repeats)
    recovery_grid = time_recovery_grid(args.quick, args.repeats)
    kernel_grid = time_kernel_grid(args.quick, args.repeats)
    kernel_family_grid = time_kernel_family_grid(args.quick, args.repeats)
    telemetry_grid = time_telemetry_grid(args.quick, args.repeats)
    experiments, kernel_coverage = time_experiments(args.quick)
    summary = {
        "schema": "bench/10",
        "quick": args.quick,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "experiments": experiments,
        "kernel_coverage": kernel_coverage,
        "horizon_grid": horizon_grid,
        "shard_grid": shard_grid,
        "executor_grid": executor_grid,
        "recovery_grid": recovery_grid,
        "kernel_grid": kernel_grid,
        "kernel_family_grid": kernel_family_grid,
        "telemetry_grid": telemetry_grid,
    }
    output = Path(args.output)
    output.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    total = sum(entry["wall_time_s"] for entry in summary["experiments"].values())
    print(f"wrote {output} ({len(summary['experiments'])} experiments, {total:.2f}s total)")
    for label, entry in horizon_grid["grid"].items():
        print(
            f"  {label}: full {entry['full']['wall_time_s']}s, "
            f"pr2-poll {entry['metrics_pr2_poll']['wall_time_s']}s, "
            f"static {entry['metrics_static']['wall_time_s']}s, "
            f"adaptive {entry['metrics_adaptive']['wall_time_s']}s "
            f"(x{entry['speedup_pr2_over_adaptive']} vs PR-2 poll), "
            f"parity {all(entry['parity'].values())}"
        )
    for label, entry in shard_grid["grid"].items():
        speedup = entry.get("speedup_vs_unsharded")
        print(
            f"  {label}: {entry['wall_time_s']}s"
            + (f" (x{speedup} vs unsharded)" if speedup is not None else " (reference)")
            + f", parity {all(entry['parity'].values())}"
        )
    for label, entry in executor_grid["grid"].items():
        overhead = entry.get("overhead_vs_pool")
        print(
            f"  {label}: {entry['wall_time_s']}s"
            + (f" (x{overhead} vs pool)" if overhead is not None else "")
            + f", parity {all(entry['parity'].values())}"
        )
    for label, entry in recovery_grid["grid"].items():
        slowdown = entry.get("slowdown_vs_no_churn")
        print(
            f"  recovery {label}: {entry['wall_time_s']}s"
            + (f" (x{slowdown} vs no churn)" if slowdown is not None else " (no churn)")
            + f", {entry['fleet']['respawns']} respawns, parity {all(entry['parity'].values())}"
        )
    for label, entry in kernel_grid["grid"].items():
        print(
            f"  kernel {label}: event {entry['event']['wall_time_s']}s, "
            f"vector {entry['vector']['wall_time_s']}s "
            f"(x{entry['speedup_event_over_vector']}), "
            f"lanes x{entry['speedup_lanes']}, "
            f"parity {all(entry['parity'].values())}"
        )
    for label, entry in kernel_family_grid["grid"].items():
        print(
            f"  kernel family {label}: event {entry['event']['wall_time_s']}s, "
            f"vector {entry['vector']['wall_time_s']}s "
            f"(x{entry['speedup_event_over_vector']}), "
            f"parity {all(entry['parity'].values())}"
        )
    for label, entry in telemetry_grid["grid"].items():
        print(
            f"  telemetry {label}: untraced {entry['untraced']['wall_time_s']}s, "
            f"traced {entry['traced']['wall_time_s']}s "
            f"(x{entry['overhead_traced_over_untraced']}, {entry['spans']} spans), "
            f"parity {all(entry['parity'].values())}"
        )
    print(
        f"  kernel coverage: {kernel_coverage['eligible_cells']}/"
        f"{kernel_coverage['total_cells']} E-grid cells vector-eligible "
        f"(PR-7 whitelist: {kernel_coverage['pr7_eligible_cells']}, "
        f"PR-6: {kernel_coverage['pr6_eligible_cells']})"
    )

    if args.gate:
        failures = (
            check_gate(horizon_grid)
            + check_shard_gate(shard_grid)
            + check_executor_gate(executor_grid)
            + check_recovery_gate(recovery_grid)
            + check_kernel_gate(kernel_grid)
            + check_kernel_family_gate(kernel_family_grid)
            + check_telemetry_gate(telemetry_grid)
            + check_coverage_gate(kernel_coverage)
        )
        if failures:
            for failure in failures:
                print(f"PERF GATE: {failure}", file=sys.stderr)
            return 1
        print(
            "perf gate: adaptive >= static on the largest cell, sharded == unsharded "
            "float-exact, shard speedup within contract, subprocess == pool == serial "
            "float-exact at every worker count, churned sweeps respawn and stay "
            "float-exact within the recovery wall-time limit, vector == event "
            "float-exact with the "
            "kernel speedup within contract on both grids, traced == untraced "
            "float-exact within the telemetry overhead limit, and E-grid eligibility "
            "coverage strictly above the PR-7 whitelist"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
