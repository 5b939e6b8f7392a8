"""End-to-end telemetry: cross-process span trees, loss, parity, CLI.

The acceptance contract for the observability layer: a subprocess sweep
reconstructs one coherent span tree spanning parent and worker processes;
a worker killed mid-chunk leaves its orphaned spans closed with status
``lost`` (and the timeline still validates); and -- the hard constraint --
a traced run is float-for-float identical to an untraced run, across the
executor seam and across both simulation kernels.
"""

from __future__ import annotations

import dataclasses
import json
import os
import signal

import pytest

from repro import obs
from repro.analysis.serialize import result_to_json
from repro.cli import main as cli_main
from repro.experiments.common import adversarial_scenario, default_params
from repro.obs.export import validate_trace_file
from repro.runner import SubprocessWorkerExecutor, SweepRunner, reset_runner
from repro.runner.exec import faultinject
from repro.workloads.scenarios import run_scenario

from test_executors import FAST, fingerprint, wait_for
from test_shard_merge import _parity_grid


@pytest.fixture(autouse=True)
def _clean_obs_and_runner():
    reset_runner()
    obs.disable()
    yield
    obs.disable()
    reset_runner()


def _origin(span) -> str:
    return span.span_id.split(":", 1)[0]


# -- cross-process span-tree reconstruction --------------------------------


def test_subprocess_sweep_reconstructs_cross_process_span_tree(tmp_path):
    obs.enable()
    scenario = dataclasses.replace(_parity_grid()[0], replications=4, shards=4, name="")
    with SweepRunner(jobs=2, executor=SubprocessWorkerExecutor(2, **FAST)) as runner:
        runner.run(scenario, trace_level="metrics")
    spans = obs.tracer().all_spans()
    by_id = {span.span_id: span for span in spans}
    names = {span.name for span in spans}
    assert {"runner.sweep", "exec.task", "exec.attempt", "worker.task", "scenario.shard", "fleet.worker"} <= names
    assert len({_origin(span) for span in spans}) >= 2  # parent + worker processes

    (sweep,) = [span for span in spans if span.name == "runner.sweep"]
    tasks = [span for span in spans if span.name == "exec.task"]
    assert len(tasks) == 4 and all(span.parent_id == sweep.span_id for span in tasks)
    worker_tasks = [span for span in spans if span.name == "worker.task"]
    assert len(worker_tasks) == 4
    for span in worker_tasks:
        # Each worker-side root links across the process boundary to the
        # parent-side exec.task span that shipped it the context.
        parent = by_id[span.parent_id]
        assert parent.name == "exec.task"
        assert _origin(parent) != _origin(span)
    for span in spans:
        if span.name == "scenario.shard":
            assert by_id[span.parent_id].name == "worker.task"
    assert all(span.status == "ok" for span in spans)

    # Worker-side metrics merged home: four lanes accounted, queue waits seen.
    registry = obs.registry()
    lanes = sum(
        registry.counter(f"kernel.{bucket}") or 0
        for bucket in ("vector_lanes", "fallback_lanes", "ineligible_lanes")
    )
    assert lanes == 4
    assert registry.counter("kernel.blocks") == 4  # one lockstep block per shard task
    assert registry.snapshot()["histograms"]["fleet.queue_wait_s"]["count"] >= 1

    # The exported timeline holds together: unique ids, resolvable parents,
    # children nested inside their parents, one viewer lane per process.
    from repro.obs.export import write_chrome_trace

    path = tmp_path / "trace.json"
    write_chrome_trace(path, obs.tracer().export_payload()["spans"])
    info = validate_trace_file(path)
    assert info["spans"] == len(spans)
    assert info["origins"] >= 2
    assert info["linked"] >= len(tasks) + len(worker_tasks)


def test_worker_killed_mid_chunk_closes_orphaned_spans_lost(tmp_path):
    obs.enable()
    latch = str(tmp_path / "latch")
    with SubprocessWorkerExecutor(2, **FAST) as executor:
        future = executor.submit(faultinject.hang_once_task, latch)
        wait_for(lambda: os.path.exists(latch))
        os.kill(int(open(latch).read()), signal.SIGKILL)
        assert future.result(timeout=60) == "recovered"
    spans = obs.tracer().all_spans()
    attempts = [span for span in spans if span.name == "exec.attempt"]
    assert sorted(span.status for span in attempts) == ["lost", "ok"]
    workers = [span for span in spans if span.name == "fleet.worker"]
    assert "lost" in {span.status for span in workers}
    (task,) = [span for span in spans if span.name == "exec.task"]
    assert task.status == "ok"  # the retry recovered the task itself
    # Loss does not corrupt the timeline: the export still validates.
    from repro.obs.export import write_chrome_trace

    path = tmp_path / "trace.json"
    write_chrome_trace(path, obs.tracer().export_payload()["spans"])
    validate_trace_file(path)


# -- the hard constraint: tracing never changes a measured value -----------


def test_traced_subprocess_sweep_float_identical_to_untraced():
    scenarios = _parity_grid()
    untraced = SweepRunner(jobs=1).run_sweep(scenarios, trace_level="metrics")
    obs.enable()
    with SweepRunner(jobs=2, executor=SubprocessWorkerExecutor(2, **FAST)) as runner:
        traced = runner.run_sweep(scenarios, trace_level="metrics")
    assert obs.tracer().all_spans(), "tracing was on but recorded nothing"
    assert fingerprint(traced) == fingerprint(untraced)


@pytest.mark.parametrize("kernel", ["event", "vector"])
def test_traced_run_float_identical_to_untraced_per_kernel(kernel):
    scenario = dataclasses.replace(
        adversarial_scenario(default_params(7, authenticated=True), "auth", attack="skew_max", rounds=5, seed=11),
        replications=3,
        shards=2,
        kernel=kernel,
        name="",
    )
    untraced = run_scenario(scenario, trace_level="metrics")
    obs.enable()
    traced = run_scenario(scenario, trace_level="metrics")
    assert result_to_json(traced) == result_to_json(untraced)
    names = {span.name for span in obs.tracer().all_spans()}
    assert "scenario.shard" in names
    if kernel == "vector":
        assert {"kernel.phase1", "kernel.phase2"} <= names


# -- remote failures are debuggable ----------------------------------------


def test_remote_error_carries_worker_traceback():
    # Works untraced: a remote failure must be debuggable without telemetry.
    with SubprocessWorkerExecutor(1, **FAST) as executor:
        with pytest.raises(ValueError, match="boom") as info:
            executor.submit(faultinject.raise_task, "boom").result(timeout=60)
    exc = info.value
    notes = getattr(exc, "__notes__", None)
    if notes is not None:  # 3.11+: surfaced by the interpreter's own traceback
        assert any("remote worker traceback" in note for note in notes)
        trace_text = "\n".join(notes)
    else:  # 3.10: stashed on the exception instead
        trace_text = exc.remote_traceback
    assert "raise_task" in trace_text


# -- CLI surface -----------------------------------------------------------


def test_cli_run_exports_single_cross_process_timeline(tmp_path):
    trace_path = tmp_path / "trace.json"
    events_path = tmp_path / "spans.jsonl"
    rc = cli_main(
        [
            "run",
            "--executor", "subprocess",
            "--workers", "2",
            "--replications", "4",
            "--shards", "4",
            "--rounds", "3",
            "--no-cache",
            "--trace-out", str(trace_path),
            "--events-out", str(events_path),
        ]
    )
    assert rc == 0
    info = validate_trace_file(trace_path)
    assert info["origins"] >= 2  # parent and worker spans in one timeline
    assert info["linked"] >= 1
    entries = [json.loads(line) for line in events_path.read_text().splitlines()]
    assert len(entries) == info["spans"]
    assert {"runner.sweep", "worker.task"} <= {entry["name"] for entry in entries}
    assert not obs.enabled()  # command-scoped: nothing leaks past main()


def test_cli_stats_reports_cache_fleet_and_provenance(capsys):
    rc = cli_main(
        [
            "stats",
            "--executor", "subprocess",
            "--workers", "2",
            "--replications", "4",
            "--shards", "4",
            "--rounds", "3",
            "--kernel", "vector",
            "--no-cache",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "# TYPE repro_fleet_tasks counter\nrepro_fleet_tasks 4" in out
    # Live worker-side lane counters and the CLI-edge provenance absorption
    # agree (separate namespaces, same truth).
    assert "repro_kernel_vector_lanes 4" in out
    assert "repro_provenance_vector_lanes 4" in out
    # Cache counters are always present, zero when caching is off.
    assert "repro_cache_hits 0" in out
    assert "repro_cache_misses 0" in out
    assert "repro_fleet_queue_wait_s_bucket" in out
    assert not obs.metrics_enabled()
