"""The repo's one benchmark: six workloads, end-to-end metrics, a per-layer ledger.

Usage::

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1] [--passes K] [--output FILE]
    python3 perfbench/run.py --write-expected

Each workload runs as one closed loop in this process.  ``--trace 0`` (the
default) measures the end-to-end metrics with telemetry off; ``--trace 1``
is the separate traced run that fills the per-layer ledger (and alternates
untraced and traced passes, so their ratio is the tracing overhead).  Every
metric is printed by name with its unit, outputs are checked against
``expected.json`` (default seed) or a sampled event-loop reference (other
seeds), and the last line of standard output is one JSON object per
workload: ``{"correct", "attempted", "failed", "metrics"}``.  The exit code
is non-zero when any result failed its check.  ``README.md`` has the
workload and metric tables and says why times are floors in reference-host
seconds rather than median wall seconds.
"""

from __future__ import annotations

import time

#: Set-up is timed from here: before ``repro`` and numpy are imported.
_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

#: ``name -> (unit, better)`` of the end-to-end metrics, as in BENCHMARK.json.
#: Failures are reported through ``attempted``/``failed``/``correct`` (and
#: printed as ``failed_share``), not as a metric: a metric must never be 0.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "cpu_s": ("s", "lower"),
    "runs_per_s": ("1/s", "higher"),
    "sim_msgs_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MiB", "lower"),
}

#: Environment the benchmark pins so a user's shell cannot change a workload.
UNSET_ENV = ("REPRO_KERNEL", "REPRO_JOBS", "REPRO_SHARDS", "REPRO_EXECUTOR", "REPRO_AUTOSCALE", "REPRO_CACHE")

#: Set-up samples per run (this process plus fresh child processes); the
#: reported ``setup_s`` is their median.
SETUP_SAMPLES = 3
#: Timed passes never number fewer than this, whatever ``--seconds`` says.
MIN_PASSES = 5
#: A traced run makes at least this many untraced and this many traced passes.
MIN_TRACED_PASSES = 2


def pin_environment(workdir: Path) -> dict:
    """Pin every ``REPRO_*`` knob; returns the pinned values for the run header."""
    for name in UNSET_ENV:
        os.environ.pop(name, None)
    os.environ["REPRO_CACHE_DIR"] = str(workdir / "default-cache")
    # Fleet workers import ``timing`` for their calibration spin.
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(BENCH_DIR), os.environ.get("PYTHONPATH")]))
    pinned = {name: None for name in UNSET_ENV}
    pinned["REPRO_CACHE_DIR"] = "<workdir>/default-cache"
    pinned["PYTHONPATH"] = "perfbench:$PYTHONPATH"
    return pinned


def run_header(args, pinned: dict) -> dict:
    """Where and how this run was taken, so a number is never read out of context."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    cpu_model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
            cpu_model = next(line.split(":", 1)[1].strip() for line in handle if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "commit": commit,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "load_1min": os.getloadavg()[0],
        "seed": args.seed,
        "seconds": args.seconds,
        "passes": args.passes,
        "env": pinned,
    }


# -- one workload, telemetry off: the end-to-end metrics ------------------------------


def open_workload(cls, seed: int, workdir: Path, warm_up_context=contextlib.nullcontext()):
    """Set-up as a user pays it: construct, ``setup()``, one untimed warm-up pass.

    Returns the live workload, the warm-up pass's cells and how much slower
    than the reference host the warm-up pass ran; closes the workload if
    anything raises.
    """
    from timing import Meter, mean_slowdown

    workload = cls(seed, workdir)
    warm: list = []
    meter = Meter(spin=workload.spin)
    try:
        workload.setup()
        with warm_up_context:
            workload.run_pass(meter, warm.extend)
    except BaseException:
        workload.close()
        raise
    return workload, warm, mean_slowdown(meter)


def child_setup_sample(name: str, seed: int) -> tuple:
    """``(seconds, host slowdown)`` of set-up in a fresh process: this script with ``--setup-only``."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=170,
    )
    if done.returncode != 0:
        raise RuntimeError(f"set-up child for {name} failed:\n{done.stderr}")
    seconds, slowdown = done.stdout.split()[-2:]
    return float(seconds), float(slowdown)


def timed_passes(workload, checker, seconds: float, passes) -> list:
    """The meters of the timed passes: ``passes`` of them, or ``seconds`` worth."""
    from timing import Meter

    meters = []
    deadline = time.perf_counter() + seconds
    while len(meters) < (passes or MIN_PASSES) or (not passes and time.perf_counter() < deadline):
        meters.append(Meter(workload.worker_pids(), workload.spin))
        workload.run_pass(meters[-1], checker.sink)
        checker.end_pass()
    return meters


def measure_end_to_end(cls, args, workdir: Path, started: float) -> dict:
    from timing import CPU, WALL, floor_seconds, host_slowdown, peak_rss_mib, summarize
    from verify import Checker

    workload, warm, warm_slowdown = open_workload(cls, args.seed, workdir)
    try:
        setups = [(time.perf_counter() - started, warm_slowdown)]
        setups += [child_setup_sample(cls.name, args.seed) for _ in range(SETUP_SAMPLES - 1)]
        checker = Checker.for_workload(workload)
        checker.sink(warm)
        del warm
        counts = checker.end_pass().counts()
        meters = timed_passes(workload, checker, args.seconds, args.passes)
        peak = peak_rss_mib(workload.worker_pids())
    finally:
        workload.close()
    # Times are in reference-host seconds: the passes' floor over their spins'
    # floor; each set-up (measured once, so not floored) over the mean
    # slowdown of its own warm-up pass, and the median of those.
    slowdown = host_slowdown(meters)
    wall = floor_seconds(meters, WALL) / slowdown
    # Shown beside each value: how the raw whole passes (or set-ups) spread.
    spreads = {
        "setup_s": summarize([seconds for seconds, _ in setups]),
        "wall_s": summarize([meter.wall for meter in meters]),
        "cpu_s": summarize([meter.cpu for meter in meters]),
    }
    values = {
        "setup_s": statistics.median(seconds / slower for seconds, slower in setups),
        "wall_s": wall,
        "cpu_s": floor_seconds(meters, CPU) / slowdown,
        "runs_per_s": counts["runs"] / wall,
        "sim_msgs_per_s": counts["total_messages"] / wall,
        "peak_rss_mb": peak,
    }
    return {
        "attempted": checker.attempted,
        "failed": checker.failed,
        "first_failure": checker.first_failure,
        "counts": counts,
        "host_slowdown": slowdown,
        "metrics": {
            name: {"value": value, "unit": END_TO_END[name][0], **spreads.get(name, {})}
            for name, value in values.items()
        },
    }


# -- one workload, traced: the per-layer ledger --------------------------------------


def measure_layers(cls, args, workdir: Path) -> dict:
    import layers
    from repro.crypto.signatures import digest_cache_info
    from repro.obs.export import write_chrome_trace
    from repro.runner.core import SweepRunner
    from timing import Meter, floor_seconds
    from verify import Checker

    events = [0]
    digests_before = digest_cache_info()
    workload, warm, _ = open_workload(cls, args.seed, workdir, layers.counting_events(events))
    digests_after = digest_cache_info()
    try:
        checker = Checker.for_workload(workload)
        checker.sink(warm)
        del warm
        tally = checker.end_pass()
        values = dict.fromkeys(layers.PER_LAYER, 0.0)
        values.update(layers.run_probes())
        runner = workload.runner
        serial = []
        if runner.distributed:
            # Packing quality needs the same sweeps on one core as its base.
            serial = [Meter(), Meter()]
            with SweepRunner(jobs=1) as serial_runner:
                for meter in serial:
                    for label, scenarios, level in workload.groups:
                        with meter.segment(label):
                            serial_runner.run_sweep(scenarios, trace_level=level)

        # Alternate untraced and traced passes, so both see the same host.  The
        # meters spin in this process: a fleet's worker spins would show up as
        # tasks and spans of the sweep being traced.
        untraced, traced, per_pass = [], [], []
        deadline = time.perf_counter() + args.seconds
        while len(traced) < (args.passes or MIN_TRACED_PASSES) or (
            not args.passes and time.perf_counter() < deadline
        ):
            untraced.append(Meter(workload.worker_pids()))
            workload.run_pass(untraced[-1], checker.sink)
            checker.end_pass()

            exec_before = runner.executor_stats()
            cache_before = runner.cache.stats.as_dict() if runner.cache is not None else {}
            traced.append(Meter(workload.worker_pids()))
            with layers.traced() as spans:
                workload.run_pass(traced[-1], checker.sink)
            checker.end_pass()
            counted = layers.span_metrics(spans, traced[-1].wall)
            for key, value in runner.executor_stats().items():
                if f"runner.exec.{key}" in layers.PER_LAYER:
                    counted[f"runner.exec.{key}"] = value - exec_before[key]
            for key, before in cache_before.items():
                counted[f"runner.cache.{key}"] = getattr(runner.cache.stats, key) - before
            per_pass.append(counted)
    finally:
        workload.close()
    write_chrome_trace(OUT_DIR / f"{cls.name}.trace.json", spans)

    for key in per_pass[0]:
        values[key] = statistics.median(counted[key] for counted in per_pass)
    untraced_wall = floor_seconds(untraced)
    values["obs.trace_overhead_ratio"] = floor_seconds(traced) / untraced_wall
    for key in layers.PER_LAYER:
        # experiments.E7_s on egrid_full, event_mixed.auth_full_s on event_mixed.
        layer, _, label = key.partition(".")
        if layer in ("experiments", cls.name) and label.endswith("_s"):
            values[key] = floor_seconds(untraced, group=label[:-2])
    values["sim.events.ops"] = events[0]
    values["sim.network.msgs"] = tally.total_messages
    values["sim.kernel.vector_lanes"] = tally.vector_lanes
    values["sim.kernel.fallback_lanes"] = tally.fallback_lanes
    values["sim.kernel.ineligible_lanes"] = tally.ineligible_lanes
    if runner.cache is not None:
        sizes = [path.stat().st_size for path in runner.cache.directory.glob("*/*.pkl")]
        values["runner.cache.entry_bytes"] = sum(sizes) / len(sizes)
    digest_hits = digests_after.hits - digests_before.hits
    kernel_s = sum(values[f"sim.vectorized.{phase}_s"] for phase in ("phase1", "phase2", "replay"))
    for key, numerator, denominator in (
        ("sim.recorder.full_over_metrics", values["event_mixed.auth_full_s"], values["event_mixed.auth_oracle_s"]),
        ("sim.engine.us_per_event", 1e6 * values["sim.engine.run_s"], events[0]),
        ("sim.vectorized.us_per_sim_msg", 1e6 * kernel_s, tally.vector_messages),
        ("crypto.signatures.digest_hit_share", digest_hits, digest_hits + digests_after.misses - digests_before.misses),
        ("runner.cache.hit_share", values["runner.cache.hits"], values["runner.cache.hits"] + values["runner.cache.misses"]),
        ("runner.exec.parallel_efficiency", floor_seconds(serial) if serial else 0.0, untraced_wall * runner.jobs),
    ):
        if denominator:
            values[key] = numerator / denominator
    return {
        "attempted": checker.attempted,
        "failed": checker.failed,
        "first_failure": checker.first_failure,
        "counts": tally.counts(),
        "metrics": {
            name: {"value": values[name], "unit": layers.PER_LAYER[name][0]} for name in layers.PER_LAYER
        },
    }


# -- reporting -----------------------------------------------------------------------


def print_report(name: str, trace: int, outcome: dict) -> None:
    print(f"== {name} ({'traced: per-layer' if trace else 'untraced: end-to-end'}) ==")
    for key, value in outcome["counts"].items():
        print(f"  {key:<44} {value:>16} count")
    for metric, entry in outcome["metrics"].items():
        line = f"  {metric:<44} {entry['value']:>16.6g} {entry['unit']}"
        if "n" in entry:
            line += (
                f"   raw samples: median {entry['median']:.6g}  q1 {entry['q1']:.6g}  q3 {entry['q3']:.6g}"
                f"  min {entry['min']:.6g}  max {entry['max']:.6g}  n {entry['n']}"
            )
        print(line)
    if "host_slowdown" in outcome:
        print(f"  {'host_slowdown':<44} {outcome['host_slowdown']:>16.6g} ratio   (the times above are divided by it)")
    share = outcome["failed"] / outcome["attempted"]
    print(f"  {'failed_share':<44} {share:>16.6g} ratio   ({outcome['failed']} of {outcome['attempted']})")
    if outcome["first_failure"]:
        print(f"  FIRST FAILURE: {outcome['first_failure']}")


def result_line(outcome: dict) -> str:
    """The contract's last line: exactly ``correct``, ``attempted``, ``failed``, ``metrics``."""
    return json.dumps(
        {
            "correct": outcome["failed"] == 0,
            "attempted": outcome["attempted"],
            "failed": outcome["failed"],
            "metrics": {
                name: {"value": entry["value"], "unit": entry["unit"]}
                for name, entry in outcome["metrics"].items()
            },
        }
    )


def write_expected(workloads: dict, workdir: Path) -> None:
    from timing import Meter
    from verify import DEFAULT_SEED, Checker, write_expected as commit_expected

    tallies = {}
    for name, cls in workloads.items():
        workload = cls(DEFAULT_SEED, workdir)
        checker = Checker({})
        try:
            workload.setup()
            workload.run_pass(Meter(), checker.sink)
        finally:
            workload.close()
        tallies[name] = checker.end_pass()
        if tallies[name].failed:
            raise SystemExit(f"{name}: refusing to commit a failing pass: {tallies[name].first_failure}")
        print(f"{name}: {tallies[name].counts()}")
    commit_expected(tallies)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", help="one workload name, or 'all' (default)")
    parser.add_argument("--seed", type=int, default=0, help="workload seed (default 0, the committed reference)")
    parser.add_argument("--seconds", type=float, default=10.0, help="how long each run measures (default 10)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: the traced per-layer run")
    parser.add_argument("--passes", type=int, default=None, help="fixed pass count instead of --seconds")
    parser.add_argument("--output", type=Path, default=None, help="append one full JSON record per workload")
    parser.add_argument("--write-expected", action="store_true", help="regenerate expected.json (seed 0)")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH_DIR))
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    try:
        pinned = pin_environment(workdir)
        from workloads import WORKLOADS

        if args.workload != "all" and args.workload not in WORKLOADS:
            parser.error(f"unknown workload {args.workload!r}; expected one of {list(WORKLOADS)} or 'all'")
        chosen = WORKLOADS if args.workload == "all" else {args.workload: WORKLOADS[args.workload]}

        if args.write_expected:
            write_expected(chosen, workdir)
            return 0
        if args.setup_only:
            (cls,) = chosen.values()
            workload, _, slowdown = open_workload(cls, args.seed, workdir)
            print(time.perf_counter() - _START, slowdown)
            workload.close()
            return 0

        header = run_header(args, pinned)
        for key, value in header.items():
            print(f"# {key}: {value}")
        failed = 0
        started = _START
        for name, cls in chosen.items():
            if args.trace:
                outcome = measure_layers(cls, args, workdir)
            else:
                outcome = measure_end_to_end(cls, args, workdir, started)
            print_report(name, args.trace, outcome)
            if args.output is not None:
                record = {
                    "schema": "perfbench/1", "workload": name, "trace": args.trace, "header": header,
                    "elapsed_s": time.perf_counter() - started, **outcome,
                }
                with args.output.open("a", encoding="utf-8") as handle:
                    handle.write(json.dumps(record) + "\n")
            print(result_line(outcome), flush=True)
            failed += outcome["failed"]
            started = time.perf_counter()
        return 1 if failed else 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
