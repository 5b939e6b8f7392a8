"""The per-layer ledger: metric registry, benchmark-side spans, op probes, span analysis.

Every layer metric is measured *from outside* the program: by timing calls
into public functions (:func:`traced` wraps public names with ``repro.obs``
spans for the duration of a traced pass and restores them afterwards -- no
file under ``src/`` changes), by isolated op probes, by
exact counts the program already returns, or by reading the spans
``repro.obs`` already emits.  Layers are module names; the README states,
for each metric, which end-to-end metric it should move on which workload.
"""

from __future__ import annotations

import functools
import io
import os
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from repro import obs
from repro.core.messages import RoundContent
from repro.crypto.signatures import KeyStore, sign
from repro.experiments.common import adversarial_scenario, default_params
from repro.runner import cache as runner_cache
from repro.runner import core as runner_core
from repro.runner import sharded as runner_sharded
from repro.runner.exec import SubprocessWorkerExecutor
from repro.runner.exec.protocol import encode_frame, read_frame, write_frame
from repro.sim import engine as sim_engine
from repro.sim.events import EventQueue
from repro.sim.recorder import merge_summaries
from repro.workloads import scenarios as wl_scenarios

from workloads import EGRID_IDS, FLEET_WORKERS, event_mixed_groups, fleet_sweeps

SRC_DIR = Path(__file__).resolve().parent.parent / "src"

#: ``name -> (unit, better)`` for every per-layer metric, in report order.
#: ``BENCHMARK.json`` lists exactly these; a traced run prints every one on
#: every workload (0 where the workload never enters the layer).
PER_LAYER = {
    "sim.events.push_pop_ns": ("ns", "lower"),
    "sim.events.ops": ("count", "lower"),
    "sim.network.send_ns": ("ns", "lower"),
    "sim.network.msgs": ("count", "lower"),
    "crypto.signatures.sign_ns": ("ns", "lower"),
    "crypto.signatures.verify_ns": ("ns", "lower"),
    "crypto.signatures.digest_hit_share": ("ratio", "higher"),
    "sim.engine.run_s": ("s", "lower"),
    "sim.engine.us_per_event": ("us", "lower"),
    "sim.recorder.merge_us": ("us", "lower"),
    "sim.recorder.full_over_metrics": ("ratio", "lower"),
    "workloads.scenarios.build_cluster_s": ("s", "lower"),
    "workloads.scenarios.run_scenario_s": ("s", "lower"),
    "workloads.scenarios.shard_s": ("s", "lower"),
    "workloads.scenarios.self_s": ("s", "lower"),
    "analysis.verify_guarantees_s": ("s", "lower"),
    "sim.kernel.vector_lanes": ("count", "higher"),
    "sim.kernel.fallback_lanes": ("count", "lower"),
    "sim.kernel.ineligible_lanes": ("count", "lower"),
    "sim.vectorized.run_lanes_s": ("s", "lower"),
    "sim.vectorized.phase1_s": ("s", "lower"),
    "sim.vectorized.phase2_s": ("s", "lower"),
    "sim.vectorized.replay_s": ("s", "lower"),
    "sim.vectorized.us_per_sim_msg": ("us", "lower"),
    "sim.vectorized.first_call_s": ("s", "lower"),
    "runner.core.sweep_s": ("s", "lower"),
    "runner.core.self_s": ("s", "lower"),
    "runner.sharded.shard_tasks": ("count", "lower"),
    "runner.sharded.fold_us": ("us", "lower"),
    "runner.exec.spawn_s": ("s", "lower"),
    "worker.cold_start_s": ("s", "lower"),
    "runner.exec.tasks": ("count", "lower"),
    "runner.exec.steals": ("count", "lower"),
    "runner.exec.retries": ("count", "lower"),
    "runner.exec.workers_lost": ("count", "lower"),
    "runner.exec.queue_wait_s": ("s", "lower"),
    "runner.exec.queue_wait_p50_ms": ("ms", "lower"),
    "runner.exec.attempt_s": ("s", "lower"),
    "runner.exec.busy_share": ("ratio", "higher"),
    "runner.exec.imbalance": ("ratio", "lower"),
    "runner.exec.parallel_efficiency": ("ratio", "higher"),
    "runner.exec.frame_encode_us": ("us", "lower"),
    "runner.exec.frame_decode_us": ("us", "lower"),
    "runner.exec.frame_bytes": ("B", "lower"),
    "worker.task_s": ("s", "lower"),
    "runner.cache.key_us": ("us", "lower"),
    "runner.cache.put_us": ("us", "lower"),
    "runner.cache.stores": ("count", "lower"),
    "runner.cache.misses": ("count", "lower"),
    "runner.cache.entry_bytes": ("B", "lower"),
    "runner.cache.get_us": ("us", "lower"),
    "runner.cache.hits": ("count", "higher"),
    "runner.cache.hit_share": ("ratio", "higher"),
    **{f"experiments.{exp_id}_s": ("s", "lower") for exp_id in EGRID_IDS},
    **{f"event_mixed.{group}_s": ("s", "lower") for group in event_mixed_groups(0)},
    "obs.trace_overhead_ratio": ("ratio", "lower"),
    "obs.spans": ("count", "lower"),
}


# -- benchmark-side spans around public names ----------------------------------------

#: ``(owner, attribute, span name)``: the public calls into each layer that
#: ``repro.obs`` does not already span.  Names imported into a module are
#: wrapped where they are *looked up* (``scenarios.run_lanes``, not
#: ``vectorized.run_lanes``), so the call sites see the wrapper.
WRAPPED = (
    (wl_scenarios, "build_cluster", "pb:scenarios.build_cluster"),
    (wl_scenarios, "run_lanes", "pb:vectorized.run_lanes"),
    (wl_scenarios, "verify_measurements", "pb:analysis.verify"),
    (wl_scenarios, "verify_summary", "pb:analysis.verify"),
    (sim_engine.Simulation, "run_until_round", "pb:Simulation.run_until_round"),
    (runner_core, "cache_key", "pb:cache.cache_key"),
    (runner_cache.ResultCache, "get", "pb:ResultCache.get"),
    (runner_cache.ResultCache, "put", "pb:ResultCache.put"),
    (runner_sharded.ShardFold, "add", "pb:ShardFold.add"),
)


@contextmanager
def patched(replacements):
    """Install ``[(owner, attribute, wrap)]`` and restore the originals on exit."""
    originals = []
    try:
        for owner, attribute, wrap in replacements:
            original = owner.__dict__[attribute]
            originals.append((owner, attribute, original))
            setattr(owner, attribute, wrap(original))
        yield
    finally:
        for owner, attribute, original in reversed(originals):
            setattr(owner, attribute, original)


def _spanned(name: str):
    def wrap(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with obs.span(name):
                return fn(*args, **kwargs)

        return wrapper

    return wrap


@contextmanager
def traced():
    """``repro.obs`` on plus the benchmark-side spans; yields the span list to fill.

    The list is filled (as span dicts) when the block exits, after which
    telemetry is off and every wrapped name is restored.
    """
    spans: list = []
    obs.enable()
    try:
        with patched([(owner, attribute, _spanned(name)) for owner, attribute, name in WRAPPED]):
            yield spans
        spans.extend(obs.tracer().export_payload()["spans"])
    finally:
        obs.disable()


@contextmanager
def counting_events(counter: list):
    """Count ``EventQueue.push`` calls into ``counter[0]`` (untimed passes only)."""

    def wrap(push):
        @functools.wraps(push)
        def counted(self, time_, action, *args):
            counter[0] += 1
            return push(self, time_, action, *args)

        return counted

    with patched([(EventQueue, "push", wrap)]):
        yield


# -- span analysis -------------------------------------------------------------------


def total_seconds(spans: list, name: str) -> float:
    return sum(span["end"] - span["start"] for span in spans if span["name"] == name)


def mean_microseconds(spans: list, name: str) -> float:
    durations = [span["end"] - span["start"] for span in spans if span["name"] == name]
    return 1e6 * sum(durations) / len(durations) if durations else 0.0


def self_seconds(spans: list, names) -> float:
    """Summed self time of the spans called ``names``.

    A span's self time is its duration minus the part of its interval that
    its child spans cover (children may overlap each other, e.g. concurrent
    fleet tasks under one sweep, so the covered part is a union).
    """
    children: dict = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(span)
    total = 0.0
    for span in spans:
        if span["name"] not in names:
            continue
        covered = 0.0
        cursor = span["start"]
        for child in sorted(children.get(span["id"], ()), key=lambda c: c["start"]):
            start = max(child["start"], cursor)
            end = min(child["end"], span["end"])
            if end > start:
                covered += end - start
                cursor = end
        total += (span["end"] - span["start"]) - covered
    return total


def span_metrics(spans: list, wall: float) -> dict:
    """Every layer metric one traced pass's spans determine."""
    metrics = {
        "sim.engine.run_s": total_seconds(spans, "pb:Simulation.run_until_round"),
        "workloads.scenarios.build_cluster_s": total_seconds(spans, "pb:scenarios.build_cluster"),
        "workloads.scenarios.run_scenario_s": total_seconds(spans, "scenario.run"),
        "workloads.scenarios.shard_s": total_seconds(spans, "scenario.shard"),
        "workloads.scenarios.self_s": self_seconds(spans, ("scenario.run", "scenario.shard")),
        "analysis.verify_guarantees_s": total_seconds(spans, "pb:analysis.verify"),
        "sim.vectorized.run_lanes_s": total_seconds(spans, "pb:vectorized.run_lanes"),
        "sim.vectorized.phase1_s": total_seconds(spans, "kernel.phase1"),
        "sim.vectorized.phase2_s": total_seconds(spans, "kernel.phase2"),
        "sim.vectorized.replay_s": total_seconds(spans, "kernel.replay"),
        "runner.core.sweep_s": total_seconds(spans, "runner.sweep"),
        "runner.core.self_s": self_seconds(spans, ("runner.sweep",)),
        "runner.sharded.shard_tasks": sum(1 for span in spans if span["name"] == "pb:ShardFold.add"),
        "runner.sharded.fold_us": mean_microseconds(spans, "pb:ShardFold.add"),
        "runner.exec.attempt_s": total_seconds(spans, "exec.attempt"),
        "worker.task_s": total_seconds(spans, "worker.task"),
        "runner.cache.key_us": mean_microseconds(spans, "pb:cache.cache_key"),
        "runner.cache.put_us": mean_microseconds(spans, "pb:ResultCache.put"),
        "runner.cache.get_us": mean_microseconds(spans, "pb:ResultCache.get"),
        "obs.spans": len(spans),
    }
    # Queue wait: submit (exec.task start) to first dispatch (first exec.attempt start).
    first_attempt: dict = {}
    for span in spans:
        if span["name"] == "exec.attempt":
            known = first_attempt.get(span["parent"])
            first_attempt[span["parent"]] = span["start"] if known is None else min(known, span["start"])
    waits = sorted(
        first_attempt[span["id"]] - span["start"]
        for span in spans
        if span["name"] == "exec.task" and span["id"] in first_attempt
    )
    if waits:
        metrics["runner.exec.queue_wait_s"] = sum(waits)
        metrics["runner.exec.queue_wait_p50_ms"] = 1e3 * waits[len(waits) // 2]
    # Packing quality (the Tetris frame): how full and how even the workers were.
    busy: dict = {}
    for span in spans:
        if span["name"] == "worker.task":
            pid = (span["attrs"] or {}).get("pid")
            busy[pid] = busy.get(pid, 0.0) + span["end"] - span["start"]
    if busy and wall > 0:
        metrics["runner.exec.busy_share"] = sum(busy.values()) / (wall * FLEET_WORKERS)
        metrics["runner.exec.imbalance"] = max(busy.values()) / (sum(busy.values()) / len(busy))
    return metrics


# -- op probes (workload-independent, run once, outside any pass) ----------------------


def _worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR)
    return env


def probe_event_queue(pairs: int = 200_000, depth: int = 1000) -> float:
    """ns per ``EventQueue.push`` + ``pop`` pair at a standing depth of ``depth``."""
    rng = random.Random(1)
    queue = EventQueue()

    def action() -> None:
        pass

    for _ in range(depth):
        queue.push(rng.random(), action)
    times = [1.0 + rng.random() for _ in range(pairs)]
    start = time.perf_counter()
    for event_time in times:
        queue.push(event_time, action)
        queue.pop()
    return 1e9 * (time.perf_counter() - start) / pairs


def probe_network(messages: int = 50_000, batch: int = 1000) -> float:
    """ns per ``Network.send`` through delivery under ``UniformDelay``."""
    sim = sim_engine.Simulation(tmin=0.0, tdel=0.01, seed=1)
    sim.network.register(1, lambda envelope: None)
    payload = RoundContent(round=1)
    start = time.perf_counter()
    for _ in range(messages // batch):
        for _ in range(batch):
            sim.network.send(0, 1, payload)
        while sim.step():
            pass
    return 1e9 * (time.perf_counter() - start) / messages


def probe_signatures(calls: int = 50_000) -> tuple:
    """``(sign ns, verify ns)`` over a round's worth of distinct messages."""
    keystore = KeyStore.generate(8, seed=1)
    key = keystore.secret_key(0)
    messages = [RoundContent(round=k) for k in range(64)]
    start = time.perf_counter()
    for index in range(calls):
        sign(key, messages[index % 64])
    sign_ns = 1e9 * (time.perf_counter() - start) / calls
    signatures = [sign(key, message) for message in messages]
    start = time.perf_counter()
    for index in range(calls):
        keystore.verify(signatures[index % 64], messages[index % 64])
    return sign_ns, 1e9 * (time.perf_counter() - start) / calls


def probe_merge(parts: int = 16, repeats: int = 50) -> float:
    """us per ``merge_summaries`` over ``parts`` mergeable single-run summaries."""
    summaries = []
    for index in range(parts):
        scenario = adversarial_scenario(default_params(7), "auth", attack="skew_max", rounds=6, seed=index)
        sim = wl_scenarios.build_cluster(scenario, trace_level="metrics", mergeable=True).sim
        summaries.append(sim.run_until_round(scenario.rounds, t_max=scenario.horizon(), adaptive=True))
    start = time.perf_counter()
    for _ in range(repeats):
        merge_summaries(summaries)
    return 1e6 * (time.perf_counter() - start) / repeats


def probe_frames(repeats: int = 200) -> tuple:
    """``(encode us, decode us, bytes)`` of one real shard task's task + result frames."""
    scenario = fleet_sweeps(0)["sweep0"][0]
    task = runner_sharded.expand_shards(0, scenario, runner_sharded.shard_plan_for(scenario, "metrics"))[0]
    frames = [
        ("task", 0, runner_sharded.run_shard_chunk, [task]),
        ("result", 0, runner_sharded.run_shard_chunk([task])),
    ]
    start = time.perf_counter()
    for _ in range(repeats):
        encoded = [encode_frame(frame) for frame in frames]
    encode_us = 1e6 * (time.perf_counter() - start) / repeats
    start = time.perf_counter()
    for _ in range(repeats):
        for data in encoded:
            read_frame(io.BytesIO(data))
    decode_us = 1e6 * (time.perf_counter() - start) / repeats
    return encode_us, decode_us, sum(len(data) for data in encoded)


def probe_worker_cold_start() -> float:
    """Seconds from spawning one ``python -m repro.worker`` to its hello frame."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.worker"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=_worker_env(),
    )
    try:
        frame = read_frame(proc.stdout)
        elapsed = time.perf_counter() - start
        if frame is None or frame[0] != "hello":
            raise RuntimeError(f"worker answered {frame!r} instead of hello")
        write_frame(proc.stdin, ("shutdown",))
        proc.wait(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdin.close()
        proc.stdout.close()
    return elapsed


def probe_fleet_spawn() -> float:
    """Seconds from constructing a 2-worker subprocess fleet to every slot live."""
    start = time.perf_counter()
    with SubprocessWorkerExecutor(FLEET_WORKERS) as executor:
        executor.submit(len, ()).result(timeout=60)  # the first submit spawns the fleet
        while any(state != "live" for state in executor.slot_states()):
            if time.perf_counter() - start > 60:
                raise RuntimeError(f"fleet never came up: {executor.slot_states()}")
            time.sleep(0.001)
        return time.perf_counter() - start


_FIRST_CALL = """
import time
from repro.experiments.common import adversarial_scenario, default_params
from repro.sim.vectorized import run_lanes
scenario = adversarial_scenario(default_params(7), "auth", attack="skew_max", rounds=4)
start = time.perf_counter()
run_lanes([scenario])
print(time.perf_counter() - start)
"""


def probe_first_vector_call() -> float:
    """Seconds of the first ``run_lanes`` call in a fresh process (lazy numpy paths)."""
    done = subprocess.run(
        [sys.executable, "-c", _FIRST_CALL], env=_worker_env(),
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(done.stdout.strip().splitlines()[-1])


def run_probes() -> dict:
    sign_ns, verify_ns = probe_signatures()
    encode_us, decode_us, frame_bytes = probe_frames()
    return {
        "sim.events.push_pop_ns": probe_event_queue(),
        "sim.network.send_ns": probe_network(),
        "crypto.signatures.sign_ns": sign_ns,
        "crypto.signatures.verify_ns": verify_ns,
        "sim.recorder.merge_us": probe_merge(),
        "runner.exec.frame_encode_us": encode_us,
        "runner.exec.frame_decode_us": decode_us,
        "runner.exec.frame_bytes": frame_bytes,
        "worker.cold_start_s": probe_worker_cold_start(),
        "runner.exec.spawn_s": probe_fleet_spawn(),
        "sim.vectorized.first_call_s": probe_first_vector_call(),
    }
