"""Command-line interface.

The CLI exposes the library's main entry points without writing any Python:

* ``repro bounds``       -- print the analytic guarantees for a parameterisation,
* ``repro run``          -- run one scenario (optionally many sharded
  replications of it) and print the measured guarantees,
* ``repro kernel``       -- explain which simulation kernel serves a scenario
  (resolved selection, static eligibility verdict with the reason, and with
  ``--run`` the per-lane provenance breakdown of an actual run),
* ``repro experiment``   -- regenerate one (or all) of the reproduced tables E1..E15,
* ``repro stats``        -- run one scenario with the metrics registry on and dump
  every counter and histogram Prometheus-style,
* ``repro list-attacks`` -- list the registered Byzantine strategies,
* ``repro list-experiments`` -- list the reproduced experiments.

Invoke as ``python -m repro <command> ...``.  ``repro run`` grows the
telemetry exports: ``--trace-out trace.json`` writes a Chrome-trace-viewer
timeline of the run (parent and worker spans rebased onto one clock) and
``--events-out spans.jsonl`` the same spans as a JSONL stream.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from typing import Optional, Sequence

from . import obs
from .analysis.report import Table, render_tables
from .analysis.serialize import result_to_json
from .core.bounds import AUTH, ECHO, theoretical_bounds
from .core.params import params_for
from .experiments import EXPERIMENTS
from .faults.strategies import available_attacks
from .runner.config import configure as configure_runner
from .runner.config import get_runner
from .runner.exec import SSHConfigError, ssh_hosts_from_env
from .sim.kernel import KERNELS, resolve_kernel
from .workloads.scenarios import ALL_ALGORITHMS, CLOCK_MODES, DELAY_MODES, TRACE_LEVELS, Scenario, classify_lane


class _UsageError(Exception):
    """A flag or environment value the command cannot be built from (exit 2)."""


@contextlib.contextmanager
def _usage_errors():
    """Report a ``ValueError`` raised while building params, scenario or runner as a usage error.

    Wraps only the building, never the run: exit 1 stays reserved for a
    violated guarantee, which CI gates on.
    """
    try:
        yield
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


def _nonnegative_int(raw: str) -> int:
    value = int(raw)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def _positive_int(raw: str) -> int:
    value = int(raw)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_runner_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        type=_nonnegative_int,
        default=None,
        help="worker processes for scenario sweeps (0 = one per CPU; default: REPRO_JOBS or 1)",
    )
    parser.add_argument(
        "--executor",
        choices=["pool", "subprocess", "ssh"],
        default=None,
        help="execution backend: 'pool' (in-process multiprocessing, default), 'subprocess' "
        "(local protocol workers with fault-tolerant scheduling), 'ssh' (protocol workers "
        "on REPRO_SSH_HOSTS); default: REPRO_EXECUTOR or pool -- results are identical "
        "across backends",
    )
    parser.add_argument(
        "--workers",
        type=_positive_int,
        default=None,
        help="worker count for the chosen executor backend (overrides --jobs)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        dest="no_cache",
        help="recompute every scenario instead of reusing the on-disk result cache",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        dest="cache_dir",
        help="result cache location (default: REPRO_CACHE_DIR or ~/.cache/repro-sweeps)",
    )


def _configure_runner(args: argparse.Namespace):
    runner = configure_runner(
        jobs=args.jobs,
        use_cache=False if args.no_cache else None,
        cache_dir=args.cache_dir,
        executor=args.executor,
        workers=args.workers,
    )
    if runner.executor_spec == "ssh":
        # Validate eagerly: a missing host list should be one clear sentence
        # and exit code 2 (main() maps SSHConfigError), not a traceback from
        # the middle of a sweep.
        ssh_hosts_from_env()
    return runner


def _fleet_summary(stats: dict) -> Optional[str]:
    """One provenance line from an executor's cumulative scheduler counters."""
    if not stats:
        return None
    order = ("tasks", "retries", "workers_lost", "respawns", "quarantines", "joins")
    parts = [f"{stats[key]} {key.replace('_', ' ')}" for key in order if stats.get(key)]
    return ", ".join(parts) if parts else "idle"


def _add_param_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=int, default=7, help="number of processes (default 7)")
    parser.add_argument("--f", type=int, default=None, help="fault bound (default: maximum tolerable)")
    parser.add_argument("--rho", type=float, default=1e-4, help="hardware clock drift bound (default 1e-4)")
    parser.add_argument("--tdel", type=float, default=0.01, help="maximum message delay in seconds (default 0.01)")
    parser.add_argument("--tmin", type=float, default=0.0, help="minimum message delay (default 0)")
    parser.add_argument("--period", type=float, default=1.0, help="resynchronization period (default 1.0)")
    parser.add_argument("--alpha", type=float, default=None, help="adjustment constant (default (1+rho)*tdel)")


def _params_from_args(args: argparse.Namespace, authenticated: bool):
    return params_for(
        n=args.n,
        f=args.f,
        authenticated=authenticated,
        rho=args.rho,
        tdel=args.tdel,
        tmin=args.tmin,
        period=args.period,
        alpha=args.alpha,
        initial_offset_spread=args.tdel / 2,
    )


def _add_scenario_arguments(parser: argparse.ArgumentParser) -> None:
    """The full scenario description, shared by ``run``, ``kernel`` and ``stats``."""
    parser.add_argument("--algorithm", choices=list(ALL_ALGORITHMS), default="auth")
    parser.add_argument("--attack", default="eager", help="adversary strategy (see list-attacks); default eager")
    parser.add_argument("--actual-faults", type=int, default=None, dest="actual_faults",
                        help="how many processes actually misbehave (default: f)")
    parser.add_argument("--rounds", type=_positive_int, default=10)
    parser.add_argument("--clock-mode", choices=list(CLOCK_MODES), default="extreme", dest="clock_mode")
    parser.add_argument("--delay-mode", choices=list(DELAY_MODES), default="targeted", dest="delay_mode")
    parser.add_argument("--startup", action="store_true", help="start from scratch via the start-up protocol")
    parser.add_argument("--boot-spread", type=float, default=0.0, dest="boot_spread")
    parser.add_argument("--joiners", type=_nonnegative_int, default=0, help="number of late joiners")
    parser.add_argument("--join-time", type=float, default=0.0, dest="join_time")
    parser.add_argument("--monotonic", action="store_true", help="suppress backward clock corrections")
    parser.add_argument(
        "--trace-level",
        choices=list(TRACE_LEVELS),
        default="full",
        dest="trace_level",
        help="observation depth: 'full' records the whole trace, 'metrics' streams scalar metrics in O(n) memory",
    )
    parser.add_argument(
        "--grace",
        type=float,
        default=0.0,
        help="real time to keep simulating past target-round completion, at either trace level (default 0)",
    )
    parser.add_argument(
        "--abort-unreachable",
        action="store_true",
        dest="abort_unreachable",
        help="end the run the moment the target round becomes unreachable (an honest crash "
        "capped the completable rounds) instead of burning the full budget; changes the "
        "measured end time of infeasible runs only",
    )
    parser.add_argument(
        "--replications",
        type=_positive_int,
        default=1,
        help="independent replications of the scenario (seeds seed..seed+R-1); the result is "
        "the exact merge of the per-replication summaries (worst case over runs)",
    )
    parser.add_argument(
        "--shards",
        type=_positive_int,
        default=None,
        help="shard tasks the replications split into across the worker pool "
        "(default: one per core, REPRO_SHARDS overrides; never changes measured values)",
    )
    parser.add_argument(
        "--sample-messages",
        type=_positive_int,
        default=None,
        dest="sample_messages",
        help="retain every K-th network message as a lightweight sample in the result "
        "(message-level provenance; forces --trace-level metrics)",
    )
    parser.add_argument(
        "--kernel",
        choices=list(KERNELS),
        default=None,
        help="simulation kernel: 'auto' (the batched NumPy round evaluator exactly when the "
        "scenario is eligible -- metrics-level runs only -- else the event loop), 'event' "
        "(the pure-Python event loop always); default: REPRO_KERNEL or auto -- measured values "
        "are float-identical across kernels, and the kernel provenance row says which engine "
        "served each lane and why",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--chaos",
        default=None,
        help="scripted chaos schedule fired against the worker fleet while the scenario runs, "
        "e.g. 'kill@1,wedge@3' (after N completed chunks, kill/wedge/partition a worker); "
        "needs --executor subprocess or ssh -- results are float-identical regardless",
    )
    parser.add_argument(
        "--chaos-seed",
        type=int,
        default=0,
        dest="chaos_seed",
        help="seed for the chaos schedule's victim selection (default 0)",
    )


def _scenario_from_args(args: argparse.Namespace) -> Scenario:
    """Build the declarative scenario a ``run``/``kernel``/``stats`` invocation describes.

    Resolves its kernel too, so an unknown ``REPRO_KERNEL`` fails here, with
    the other bad flags, rather than in the middle of the run.
    """
    authenticated = args.algorithm == "auth"
    params = _params_from_args(args, authenticated=authenticated)
    scenario = Scenario(
        params=params,
        algorithm=args.algorithm,
        attack=args.attack,
        actual_faults=args.actual_faults,
        rounds=args.rounds,
        clock_mode=args.clock_mode,
        delay_mode=args.delay_mode,
        use_startup=args.startup,
        boot_spread=args.boot_spread,
        joiner_count=args.joiners,
        join_time=args.join_time,
        monotonic=args.monotonic,
        grace=args.grace,
        abort_unreachable=args.abort_unreachable,
        replications=args.replications,
        shards=args.shards,
        sample_messages=args.sample_messages,
        kernel=args.kernel,
        seed=args.seed,
    )
    resolve_kernel(scenario)
    return scenario


def _resolve_trace_level(args: argparse.Namespace) -> str:
    """The effective trace level, with the forcing notes ``run`` always printed."""
    trace_level = args.trace_level
    if args.replications > 1 and trace_level == "full":
        # Replicated runs merge streamed summaries; full traces do not merge.
        trace_level = "metrics"
        print("note: --replications forces --trace-level metrics", file=sys.stderr)
    if args.sample_messages is not None and trace_level == "full":
        # Full traces keep every message already; sampling is a metrics feature.
        trace_level = "metrics"
        print("note: --sample-messages forces --trace-level metrics", file=sys.stderr)
    return trace_level


def _run_with_chaos(args: argparse.Namespace, runner, scenario: Scenario, trace_level: str):
    """Run via the shared runner, under the scripted chaos schedule when given.

    Returns the result, or ``None`` when ``--chaos`` was requested on a
    non-distributed backend (the caller exits 2).
    """
    if not args.chaos:
        return runner.run(scenario, trace_level=trace_level)
    if not runner.distributed:
        print(
            "error: --chaos drives the fleet scheduler; use --executor subprocess or ssh",
            file=sys.stderr,
        )
        return None
    from .runner.exec import ChaosController, ChaosSchedule

    schedule = ChaosSchedule.parse(args.chaos, seed=args.chaos_seed)
    with ChaosController(runner.executor, schedule) as chaos:
        result = runner.run(scenario, trace_level=trace_level)
    fired = ", ".join(f"{action}@{after}->pid {pid}" for action, after, pid in chaos.fired)
    print(f"chaos: {fired or 'no events fired'}", file=sys.stderr)
    return result


def _render_provenance(provenance) -> str:
    """The one kernel-provenance line ``run`` and ``kernel --run`` both print.

    Also folds the record into the metrics registry when one is installed --
    under the ``provenance.*`` namespace, distinct from the live worker-side
    ``kernel.*`` counters -- so ``repro stats`` reports the same breakdown
    this renders.
    """
    if obs.metrics_enabled():
        obs.registry().absorb_kernel_provenance(provenance, prefix="provenance")
    return provenance.describe()


def _export_telemetry(args: argparse.Namespace, runner) -> None:
    """Write the ``--trace-out`` / ``--events-out`` exports for a traced run."""
    from .obs.export import write_chrome_trace, write_jsonl

    # Reap the fleet first so worker incarnation spans close cleanly instead
    # of being flagged "open" in the export.
    runner.close()
    payload = obs.tracer().export_payload()
    if args.trace_out is not None:
        count = write_chrome_trace(args.trace_out, payload["spans"])
        print(f"trace: {count} spans -> {args.trace_out}", file=sys.stderr)
    if args.events_out is not None:
        count = write_jsonl(args.events_out, payload["spans"])
        print(f"events: {count} spans -> {args.events_out}", file=sys.stderr)


def _cmd_bounds(args: argparse.Namespace) -> int:
    algorithm = ECHO if args.algorithm == "echo" else AUTH
    with _usage_errors():
        params = _params_from_args(args, authenticated=algorithm == AUTH)
    bounds = theoretical_bounds(params, algorithm)
    table = Table(title=f"Analytic guarantees ({algorithm}, {params.describe()})", headers=["quantity", "value"])
    for key, value in bounds.as_dict().items():
        table.add_row(key, value)
    print(table.render())
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    exporting = args.trace_out is not None or args.events_out is not None
    if not exporting:
        return _run_and_report(args, exporting=False)
    # Telemetry watches wall-clock scheduling only; the measured result is
    # float-identical either way (pinned by tests/test_obs_integration.py).  The
    # disable() makes enabling command-scoped, so in-process callers (the
    # test suite drives main() directly) never leak an installed tracer.
    obs.enable()
    try:
        return _run_and_report(args, exporting=True)
    finally:
        obs.disable()


def _run_and_report(args: argparse.Namespace, exporting: bool) -> int:
    with _usage_errors():
        runner = _configure_runner(args)
        scenario = _scenario_from_args(args)
        trace_level = _resolve_trace_level(args)
    result = _run_with_chaos(args, runner, scenario, trace_level)
    if result is None:
        return 2
    fleet = _fleet_summary(runner.executor_stats())
    if exporting:
        _export_telemetry(args, runner)
    if args.json:
        if fleet is not None:
            print(f"fleet: {fleet}", file=sys.stderr)
        include_trace = args.include_trace and result.trace is not None
        print(result_to_json(result, include_trace=include_trace))
        return 0 if result.guarantees_hold else 1
    table = Table(title=f"Scenario {scenario.name}", headers=["quantity", "value"])
    if fleet is not None:
        table.add_row("fleet", fleet)
    if scenario.replications > 1:
        table.add_row("replications", scenario.replications)
        table.add_row("shard tasks", result.shard_count)
        table.add_row("effective horizon (max, s)", result.effective_horizon)
    if result.message_samples is not None:
        table.add_row("message samples retained", len(result.message_samples))
    if result.kernel_provenance is not None:
        table.add_row("kernel", _render_provenance(result.kernel_provenance).removeprefix("kernel "))
    table.add_row("completed round", result.completed_round)
    table.add_row("precision (worst skew, s)", result.precision)
    table.add_row("acceptance spread (s)", result.acceptance_spread)
    table.add_row("messages per round", result.messages_per_round)
    if result.accuracy is not None:
        table.add_row("fastest long-run rate", result.accuracy.fastest_long_run_rate)
        table.add_row("worst |C(t)-t| (s)", result.accuracy.worst_offset_from_real_time)
    print(table.render())
    if result.guarantees is not None:
        print()
        print(result.guarantees.describe())
    return 0 if result.guarantees_hold else 1


def _cmd_kernel(args: argparse.Namespace) -> int:
    """Explain the kernel policy for one scenario.

    Prints the run path's own verdict on the scenario's lanes
    (:func:`~repro.workloads.scenarios.classify_lane`): the resolved
    selection (``auto`` or ``event``; field -> ``REPRO_KERNEL`` env ->
    auto), whether the vector kernel is offered them, and the static reason
    when it is not.  With ``--run`` the scenario is then run and its
    per-lane :class:`KernelProvenance` breakdown printed -- the one record
    of which engine served each lane and why.
    """
    with _usage_errors():
        scenario = _scenario_from_args(args)
        trace_level = _resolve_trace_level(args)
        if args.run:
            _configure_runner(args)
    record = classify_lane(scenario, trace_level)
    if record.vector_lanes:
        verdict, serves = "eligible", "vector kernel (may fall back per lane)"
    elif record.resolved == "event":
        verdict, serves = "not asked", "event loop (selected)"
    else:
        verdict, serves = "ineligible", "event loop"
    table = Table(title=f"Kernel policy for {scenario.name}", headers=["quantity", "value"])
    table.add_row("resolved kernel", record.resolved)
    table.add_row("static verdict", verdict)
    if record.ineligible_reason is not None:
        table.add_row("reason", record.ineligible_reason)
    table.add_row("serves", serves)
    print(table.render())
    if not args.run:
        return 0
    result = _run_with_chaos(args, get_runner(), scenario, trace_level)
    if result is None:
        return 2
    print()
    if result.kernel_provenance is None:
        print("run provenance: not recorded")
    else:
        print(f"run provenance: {_render_provenance(result.kernel_provenance)}")
    return 0 if result.guarantees_hold else 1


def _cmd_stats(args: argparse.Namespace) -> int:
    """Run one scenario with the metrics registry on and dump it Prometheus-style.

    Spans stay off (``trace=False``): this command is about the counters.  The
    registry accumulates live worker-side counters (``kernel.*``, ``cache.*``,
    ``fleet.queue_wait_s``/``probe_rtt_s`` histograms) during the run, then the
    edge folds in the cumulative fleet scheduler counters and the run's kernel
    provenance before rendering one Prometheus text exposition on stdout.
    """
    obs.enable(trace=False, metrics=True)
    try:
        return _stats_run(args)
    finally:
        obs.disable()


def _stats_run(args: argparse.Namespace) -> int:
    from .obs.export import render_prometheus

    with _usage_errors():
        runner = _configure_runner(args)
        scenario = _scenario_from_args(args)
        trace_level = _resolve_trace_level(args)
    result = _run_with_chaos(args, runner, scenario, trace_level)
    if result is None:
        return 2
    registry = obs.registry()
    registry.absorb_fleet_stats(runner.executor_stats())
    if result.kernel_provenance is not None:
        _render_provenance(result.kernel_provenance)
    # The cache counters tick live in _count(); force the series to exist even
    # when caching is disabled so the exposition always reports them.
    for name in ("cache.hits", "cache.misses", "cache.stores"):
        registry.inc(name, 0)
    sys.stdout.write(render_prometheus(registry.snapshot()))
    return 0 if result.guarantees_hold else 1


def _experiment_provenance_line(parts: list) -> Optional[str]:
    """Fold the kernel provenance of one experiment's results into one line."""
    if not parts:
        return None
    from .workloads.scenarios import merge_kernel_provenance

    by_resolved: dict = {}
    for part in parts:
        by_resolved.setdefault(part.resolved, []).append(part)
    return "; ".join(
        merge_kernel_provenance(resolved, group).describe()
        for resolved, group in sorted(by_resolved.items())
    )


def _cache_delta_line(before: Optional[dict], after: Optional[dict]) -> Optional[str]:
    """One line of cache activity between two :class:`CacheStats` snapshots."""
    if before is None or after is None:
        return None
    delta = {key: after[key] - before.get(key, 0) for key in after}
    if not any(delta.values()):
        return None
    return ", ".join(f"{delta[key]} {key}" for key in ("hits", "misses", "stores"))


def _cmd_experiment(args: argparse.Namespace) -> int:
    with _usage_errors():
        runner = _configure_runner(args)
    ids = list(EXPERIMENTS) if args.id == "all" else [args.id.upper()]
    unknown = [i for i in ids if i not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    from .experiments import common as experiments_common

    if args.stream:
        def report(done: int, total: int, result) -> None:
            print(f"  [{done}/{total}] {result.scenario.name}", file=sys.stderr)

        experiments_common.set_progress(report)
    provenance_parts: list = []

    def observe(result) -> None:
        if getattr(result, "kernel_provenance", None) is not None:
            provenance_parts.append(result.kernel_provenance)

    experiments_common.set_observer(observe)
    failed: list[str] = []
    try:
        for exp_id in ids:
            experiment = EXPERIMENTS[exp_id]
            provenance_parts.clear()
            cache_before = runner.cache.stats.as_dict() if runner.cache is not None else None
            try:
                tables = experiment.run(quick=args.quick)
            except Exception as exc:
                # Table generation failing must fail the invocation (it used
                # to exit 0): report, keep going so an `all` run still shows
                # which other experiments reproduce, and exit nonzero below.
                print(f"[{exp_id}] FAILED: {exc!r}", file=sys.stderr)
                failed.append(exp_id)
                continue
            if not tables:
                print(f"[{exp_id}] FAILED: produced no tables", file=sys.stderr)
                failed.append(exp_id)
                continue
            print(f"[{exp_id}] {experiment.claim}")
            provenance = _experiment_provenance_line(provenance_parts)
            if provenance is not None:
                print(f"[{exp_id}] {provenance}")
            cache_after = runner.cache.stats.as_dict() if runner.cache is not None else None
            cache_line = _cache_delta_line(cache_before, cache_after)
            if cache_line is not None:
                print(f"[{exp_id}] cache: {cache_line}", file=sys.stderr)
            print(render_tables(tables))
            print()
    finally:
        experiments_common.set_observer(None)
        if args.stream:
            experiments_common.set_progress(None)
    fleet = _fleet_summary(runner.executor_stats())
    if fleet is not None:
        print(f"fleet: {fleet}", file=sys.stderr)
    if failed:
        print(f"experiment(s) failed: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def _cmd_list_attacks(_args: argparse.Namespace) -> int:
    for name in available_attacks():
        print(name)
    return 0


def _cmd_list_experiments(_args: argparse.Namespace) -> int:
    for exp_id, experiment in EXPERIMENTS.items():
        print(f"{exp_id}: {experiment.claim}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Srikanth-Toueg optimal clock synchronization: bounds, simulations and experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    bounds = sub.add_parser("bounds", help="print the analytic guarantees for a parameterisation")
    _add_param_arguments(bounds)
    bounds.add_argument("--algorithm", choices=["auth", "echo"], default="auth")
    bounds.set_defaults(func=_cmd_bounds)

    run = sub.add_parser("run", help="run one scenario and print the measured guarantees")
    _add_param_arguments(run)
    _add_runner_arguments(run)
    _add_scenario_arguments(run)
    run.add_argument("--json", action="store_true", help="emit the result as JSON")
    run.add_argument("--include-trace", action="store_true", dest="include_trace",
                     help="include the full trace in the JSON output")
    run.add_argument(
        "--trace-out",
        default=None,
        dest="trace_out",
        help="enable span tracing for this run and write a Chrome-trace-viewer timeline "
        "(chrome://tracing / Perfetto) to this path; never changes measured values",
    )
    run.add_argument(
        "--events-out",
        default=None,
        dest="events_out",
        help="enable span tracing for this run and write every span as one JSON line to this path",
    )
    run.set_defaults(func=_cmd_run)

    kernel = sub.add_parser(
        "kernel",
        help="explain which simulation kernel serves a scenario (and why)",
    )
    _add_param_arguments(kernel)
    _add_runner_arguments(kernel)
    _add_scenario_arguments(kernel)
    kernel.set_defaults(func=_cmd_kernel, trace_level="metrics")
    kernel.add_argument(
        "--run",
        action="store_true",
        help="also run the scenario and print the per-lane provenance breakdown",
    )

    stats = sub.add_parser(
        "stats",
        help="run one scenario with the metrics registry on and dump it Prometheus-style",
    )
    _add_param_arguments(stats)
    _add_runner_arguments(stats)
    _add_scenario_arguments(stats)
    stats.set_defaults(func=_cmd_stats)

    experiment = sub.add_parser("experiment", help="regenerate one (or all) reproduced tables E1..E15")
    experiment.add_argument("id", help="experiment id (E1..E15) or 'all'")
    experiment.add_argument("--quick", action="store_true", help="smaller grids (used by the test suite)")
    experiment.add_argument(
        "--stream",
        action="store_true",
        help="report grid points on stderr as they complete (streamed sweeps only)",
    )
    _add_runner_arguments(experiment)
    experiment.set_defaults(func=_cmd_experiment)

    sub.add_parser("list-attacks", help="list registered Byzantine strategies").set_defaults(func=_cmd_list_attacks)
    sub.add_parser("list-experiments", help="list reproduced experiments").set_defaults(func=_cmd_list_experiments)
    for command in sub.choices.values():
        command.set_defaults(command_parser=command)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SSHConfigError as exc:
        # Misconfiguration, not a failed experiment: one clear sentence and
        # the usage-error exit code, never a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _UsageError as exc:
        # The shape argparse gives a bad flag: the command's usage line, then the error.
        command = args.command_parser
        command.print_usage(sys.stderr)
        print(f"{command.prog}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
