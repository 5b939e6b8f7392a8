"""Executor backends: protocol framing, fault-tolerant scheduling, lifecycle.

The fault-injection suite for :mod:`repro.runner.exec`: worker crashes
mid-chunk, wedged workers, exhausted retry budgets, the pending queue, and -- the
acceptance contract -- float-for-float result parity between the subprocess
wire backend and the serial path, including across an injected worker kill.
"""

from __future__ import annotations

import dataclasses
import io
import os
import signal
import time

import pytest

from repro.analysis.serialize import result_to_json
from repro.experiments.common import default_params, stable_seed
from repro.runner import (
    ExecutorFailure,
    LocalPoolExecutor,
    SSHExecutor,
    SubprocessWorkerExecutor,
    SweepRunner,
    configure,
    get_runner,
    make_executor,
    reset_runner,
)
from repro.runner.exec import faultinject
from repro.runner.exec.protocol import ProtocolError, read_frame, write_frame
from repro.runner.exec.remote import SSHConfigError
from repro.workloads.scenarios import Scenario

from test_shard_merge import _parity_grid

#: A short, capped worker heartbeat so the suite's failure detection is fast.
FAST = dict(heartbeat_interval=0.1, heartbeat_timeout=2.0)


@pytest.fixture(autouse=True)
def _isolated_default_runner():
    reset_runner()
    yield
    reset_runner()


def small_grid(count: int = 4, rounds: int = 4) -> list[Scenario]:
    scenarios = []
    for seed in range(count):
        params = default_params(4 + seed % 2, authenticated=True)
        scenarios.append(
            Scenario(
                params=params,
                algorithm="auth",
                attack="eager" if seed % 2 else "silent",
                rounds=rounds,
                seed=stable_seed("exec", seed),
            )
        )
    return scenarios


def fingerprint(results) -> list[str]:
    return [result_to_json(result, include_trace=True) for result in results]


def wait_for(predicate, timeout: float = 30.0, interval: float = 0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(interval)
    raise AssertionError("timed out waiting for condition")


# -- wire protocol ---------------------------------------------------------------------


def test_frame_roundtrip():
    buffer = io.BytesIO()
    frames = [("hello", 123), ("task", 0, faultinject.echo_task, [1, 2]), ("heartbeat",)]
    for frame in frames:
        write_frame(buffer, frame)
    buffer.seek(0)
    assert read_frame(buffer) == ("hello", 123)
    tag, task_id, fn, payload = read_frame(buffer)
    assert (tag, task_id, payload) == ("task", 0, [1, 2])
    assert fn is faultinject.echo_task  # functions travel by qualified name
    assert read_frame(buffer) == ("heartbeat",)
    assert read_frame(buffer) is None  # clean EOF between frames


def test_frame_truncation_detected():
    buffer = io.BytesIO()
    write_frame(buffer, ("hello", 1))
    data = buffer.getvalue()
    # Mid-header and mid-body truncations both raise; frame-boundary EOF is None.
    with pytest.raises(ProtocolError):
        read_frame(io.BytesIO(data[:2]))
    with pytest.raises(ProtocolError):
        read_frame(io.BytesIO(data[:-3]))


def test_frame_oversized_header_rejected():
    stream = io.BytesIO(b"\xff\xff\xff\xff" + b"x" * 16)
    with pytest.raises(ProtocolError):
        read_frame(stream)


# -- executor construction -------------------------------------------------------------


def test_make_executor_resolution():
    pool = make_executor(None, workers=2)
    assert isinstance(pool, LocalPoolExecutor) and pool.worker_count == 2
    assert isinstance(make_executor("pool", workers=1), LocalPoolExecutor)
    sub = make_executor("subprocess", workers=3)
    assert isinstance(sub, SubprocessWorkerExecutor) and sub.worker_count == 3
    assert make_executor(pool, workers=9) is pool  # instances pass through
    with pytest.raises(ValueError):
        make_executor("carrier-pigeon", workers=1)


def test_sweep_runner_rejects_unknown_executor():
    with pytest.raises(ValueError):
        SweepRunner(jobs=2, executor="carrier-pigeon")


def test_executor_instance_capacity_drives_parallel_path():
    # An Executor instance passed with default jobs=1 must still be used:
    # the serial shortcut keys off the backend's capacity, not jobs.
    executor = LocalPoolExecutor(2)
    with SweepRunner(executor=executor) as runner:
        assert runner.worker_capacity == 2
        results = runner.run_sweep(small_grid(count=2), trace_level="metrics")
        assert executor.worker_pids(), "the supplied executor was never used"
    assert len(results) == 2
    assert executor.worker_pids() == []  # close() reached the instance too


def test_local_pool_executor_basics():
    with LocalPoolExecutor(2) as executor:
        assert executor.submit(faultinject.square_task, 6).result(timeout=60) == 36
        assert executor.worker_pids()  # live after first submit
    assert executor.worker_pids() == []


# -- subprocess backend: happy path ----------------------------------------------------


def test_subprocess_executor_runs_tasks_and_reaps():
    executor = SubprocessWorkerExecutor(2, **FAST)
    try:
        futures = [executor.submit(faultinject.square_task, n) for n in range(8)]
        assert [f.result(timeout=60) for f in futures] == [n**2 for n in range(8)]
        pids = executor.worker_pids()
        assert len(pids) == 2
        stats = executor.stats()
        assert stats["tasks"] == 8 and stats["workers_lost"] == 0
    finally:
        executor.close()
    for pid in pids:
        # close() waits each worker: fully reaped, not zombified.
        assert not os.path.exists(f"/proc/{pid}")
    # A closed executor respawns lazily on the next submit.
    try:
        assert executor.submit(faultinject.echo_task, "again").result(timeout=60) == "again"
        assert executor.worker_pids() != pids
    finally:
        executor.close()


def test_subprocess_task_errors_propagate_without_retry():
    with SubprocessWorkerExecutor(1, **FAST) as executor:
        future = executor.submit(faultinject.raise_task, "boom")
        with pytest.raises(ValueError, match="boom"):
            future.result(timeout=60)
        # The worker survived the task error and no retry was attempted.
        assert executor.submit(faultinject.echo_task, "alive").result(timeout=60) == "alive"
        stats = executor.stats()
        assert stats["retries"] == 0 and stats["workers_lost"] == 0


def test_unpicklable_payload_fails_future_without_killing_worker():
    with SubprocessWorkerExecutor(1, **FAST) as executor:
        future = executor.submit(faultinject.echo_task, lambda: None)  # closures don't pickle
        with pytest.raises(Exception) as info:
            future.result(timeout=60)
        assert "pickle" in str(info.value).lower() or "pickle" in type(info.value).__name__.lower()
        # Not misclassified as worker death: no loss, no retry, worker usable.
        assert executor.submit(faultinject.echo_task, "alive").result(timeout=60) == "alive"
        stats = executor.stats()
        assert stats["retries"] == 0 and stats["workers_lost"] == 0


def test_unpicklable_result_reported_as_task_error_not_worker_death():
    with SubprocessWorkerExecutor(1, **FAST) as executor:
        future = executor.submit(faultinject.unpicklable_result_task, 1)
        with pytest.raises(Exception) as info:
            future.result(timeout=60)
        assert "pickle" in str(info.value).lower() or "pickle" in type(info.value).__name__.lower()
        # The worker shipped an error frame and stayed alive.
        assert executor.submit(faultinject.echo_task, "alive").result(timeout=60) == "alive"
        stats = executor.stats()
        assert stats["retries"] == 0 and stats["workers_lost"] == 0


# -- fault injection -------------------------------------------------------------------


def test_killed_worker_mid_task_retries_on_survivor(tmp_path):
    latch = str(tmp_path / "latch")
    with SubprocessWorkerExecutor(2, **FAST) as executor:
        future = executor.submit(faultinject.hang_once_task, latch)
        wait_for(lambda: os.path.exists(latch))
        victim = int(open(latch).read())  # provably mid-task: it wrote the latch
        os.kill(victim, signal.SIGKILL)
        assert future.result(timeout=60) == "recovered"
        stats = executor.stats()
        assert stats["workers_lost"] == 1 and stats["retries"] == 1


def test_crash_loop_exhausts_workers_with_clear_error(tmp_path):
    # respawn=False pins the legacy shrink-only mode: with self-healing on,
    # the fleet would replace the dead workers and the task would fail on its
    # retry budget instead (covered in tests/test_fleet.py).
    with SubprocessWorkerExecutor(2, respawn=False, **FAST) as executor:
        future = executor.submit(faultinject.exit_task, 1)
        with pytest.raises(ExecutorFailure, match="no surviving worker"):
            future.result(timeout=60)
        # With every worker dead, new submissions fail fast and say why.
        with pytest.raises(ExecutorFailure, match="no live workers"):
            executor.submit(faultinject.echo_task, 1).result(timeout=60)
    # close() resets the backend: the executor is usable again.
    with SubprocessWorkerExecutor(2, respawn=False, **FAST) as executor:
        assert executor.submit(faultinject.echo_task, "fresh").result(timeout=60) == "fresh"


def test_retry_budget_bounded_even_with_surviving_workers():
    executor = SubprocessWorkerExecutor(3, max_attempts=2, **FAST)
    try:
        future = executor.submit(faultinject.exit_task, 1)
        with pytest.raises(ExecutorFailure, match="retry budget of 2"):
            future.result(timeout=60)
        stats = executor.stats()
        assert stats["workers_lost"] == 2  # one worker survives the bounded retries
        assert executor.submit(faultinject.echo_task, "ok").result(timeout=60) == "ok"
    finally:
        executor.close()


def test_heartbeat_deadline_detects_wedged_worker(tmp_path):
    latch = str(tmp_path / "latch")
    # SIGSTOP wedges the worker: pipes stay open, heartbeats stop.  Only the
    # heartbeat deadline can notice; the monitor must kill it and retry.
    with SubprocessWorkerExecutor(2, heartbeat_interval=0.1, heartbeat_timeout=1.0) as executor:
        future = executor.submit(faultinject.freeze_once_task, latch)
        assert future.result(timeout=60) == "recovered"
        assert executor.stats()["workers_lost"] == 1


def test_blocked_worker_never_holds_back_queued_tasks(tmp_path):
    gate = str(tmp_path / "gate")
    with SubprocessWorkerExecutor(2, **FAST) as executor:
        blocker = executor.submit(faultinject.hang_until_file_task, gate)
        quick = [executor.submit(faultinject.square_task, n) for n in range(6)]
        # One pending queue: nothing is ever queued *behind* the blocker, so
        # the other worker drains every quick task while the blocker runs.
        assert [f.result(timeout=60) for f in quick] == [n**2 for n in range(6)]
        assert not blocker.done()
        assert executor.stats()["steals"] == 0  # nothing to steal; key pinned by perfbench
        open(gate, "w").close()
        assert blocker.result(timeout=60) == gate


# -- sweep integration: parity and recovery --------------------------------------------


def parity_grid_scenarios() -> list[Scenario]:
    """The acceptance grid: crash/startup/joiner/drifting/tie-heavy cases
    (shared with the shard-merge suite) plus a replicated, sharded point."""
    scenarios = _parity_grid()
    scenarios.append(dataclasses.replace(scenarios[0], replications=4, shards=2, name="rep"))
    return scenarios


def test_subprocess_sweep_identical_to_serial_and_pool_on_parity_grid():
    scenarios = parity_grid_scenarios()
    serial = SweepRunner(jobs=1).run_sweep(scenarios, trace_level="metrics")
    with SweepRunner(jobs=2, executor="pool") as runner:
        pool = runner.run_sweep(scenarios, trace_level="metrics")
    with SweepRunner(jobs=2, executor="subprocess") as runner:
        remote = runner.run_sweep(scenarios, trace_level="metrics")
    assert fingerprint(pool) == fingerprint(serial)
    assert fingerprint(remote) == fingerprint(serial)


def test_distributed_single_scenario_routes_through_wire():
    scenario = small_grid(count=1)[0]
    with SweepRunner(jobs=1, executor="subprocess") as runner:
        result = runner.run(scenario, trace_level="metrics")
        executor = runner._executor
        assert executor.stats()["tasks"] == 1  # no serial shortcut
    serial = SweepRunner(jobs=1).run(scenario, trace_level="metrics")
    assert fingerprint([result]) == fingerprint([serial])


def test_sweep_survives_worker_kill_mid_sweep_float_identical():
    # The acceptance grid again -- the kill must not perturb even the cases
    # where merging or measurement could drift (crash ceilings, late
    # steady-state, joiners, drifting clocks, ties, sharded replications).
    scenarios = parity_grid_scenarios() + small_grid(count=3, rounds=6)
    serial = SweepRunner(jobs=1).run_sweep(scenarios, trace_level="metrics")
    with SweepRunner(jobs=2, executor="subprocess", chunk_size=1) as runner:
        killed = []

        def on_result(index, result):
            if not killed:
                # First completion: shoot a worker (preferably one mid-chunk).
                executor = runner._executor
                pids = executor.busy_worker_pids() or executor.worker_pids()
                os.kill(pids[0], signal.SIGKILL)
                killed.append(pids[0])

        collected = {}

        def collect(index, result):
            collected[index] = result
            on_result(index, result)

        runner.stream_sweep(scenarios, collect, trace_level="metrics")
        assert killed, "the kill hook never fired"
        assert runner._executor.stats()["workers_lost"] >= 1
    results = [collected[index] for index in range(len(scenarios))]
    assert fingerprint(results) == fingerprint(serial)


def test_sweep_raises_clear_error_when_all_workers_die():
    scenarios = small_grid(count=8, rounds=6)
    # respawn=False pins the legacy shrink-only failure mode; the self-healing
    # default finishes this sweep instead (tests/test_fleet.py asserts that).
    runner = SweepRunner(
        jobs=2, executor=SubprocessWorkerExecutor(2, respawn=False, **FAST), chunk_size=1
    )
    try:
        fired = []

        def kill_everything(index, result):
            if not fired:
                fired.append(True)
                for pid in runner._executor.worker_pids():
                    os.kill(pid, signal.SIGKILL)

        with pytest.raises(ExecutorFailure):
            runner.stream_sweep(scenarios, kill_everything, trace_level="metrics")
        # The broken backend was dropped; the next sweep respawns and works.
        serial = SweepRunner(jobs=1).run_sweep(scenarios, trace_level="metrics")
        again = runner.run_sweep(scenarios, trace_level="metrics")
        assert fingerprint(again) == fingerprint(serial)
    finally:
        runner.close()


# -- configuration and lifecycle -------------------------------------------------------


def test_configure_reset_reaps_subprocess_workers():
    configure(jobs=2, use_cache=False, executor="subprocess")
    runner = get_runner()
    runner.run_sweep(small_grid(count=2), trace_level="metrics")
    pids = runner._executor.worker_pids()
    assert len(pids) == 2
    reset_runner()
    for pid in pids:
        # Reaped, not leaked: the /proc entry is gone (a zombie would keep it).
        assert not os.path.exists(f"/proc/{pid}"), f"worker {pid} leaked past reset_runner()"


def test_configure_close_on_reconfigure_reaps_workers():
    configure(jobs=1, use_cache=False, executor="subprocess")
    runner = get_runner()
    runner.run(small_grid(count=1)[0], trace_level="metrics")
    pids = runner._executor.worker_pids()
    configure(jobs=1, use_cache=False)  # swap back to the pool backend
    for pid in pids:
        assert not os.path.exists(f"/proc/{pid}")


def test_env_executor_selection(monkeypatch):
    monkeypatch.setenv("REPRO_EXECUTOR", "subprocess")
    monkeypatch.setenv("REPRO_JOBS", "2")
    runner = configure(use_cache=False)
    assert runner.executor_spec == "subprocess" and runner.jobs == 2
    assert runner.distributed
    reset_runner()
    monkeypatch.setenv("REPRO_EXECUTOR", "smoke-signals")
    with pytest.raises(ValueError, match="REPRO_EXECUTOR"):
        configure(use_cache=False)


def test_configure_workers_overrides_jobs():
    runner = configure(jobs=1, workers=3, use_cache=False, executor="pool")
    assert runner.jobs == 3
    assert not runner.distributed
    with pytest.raises(ValueError):
        configure(executor="bogus")


# -- ssh backend (configuration only; no hosts in CI) ----------------------------------


def test_ssh_executor_requires_hosts(monkeypatch):
    monkeypatch.delenv("REPRO_SSH_HOSTS", raising=False)
    with pytest.raises(SSHConfigError, match="REPRO_SSH_HOSTS"):
        SSHExecutor()


def test_ssh_executor_command_construction(monkeypatch):
    monkeypatch.delenv("REPRO_SSH_PYTHONPATH", raising=False)
    executor = SSHExecutor(hosts=["node-a", "node-b"], workers=3, python="python3.12")
    assert executor.worker_count == 3
    assert executor.hosts == ["node-a", "node-b", "node-a"]  # cycled for capacity
    trimmed = SSHExecutor(hosts=["node-a", "node-b", "node-c"], workers=2)
    assert trimmed.worker_count == 2
    assert trimmed.hosts == ["node-a", "node-b"]  # truncated to the asked-for count
    command = executor._spawn_command(1)
    assert command[0] == "ssh" and "node-b" in command
    assert "repro.worker" in command[-1] and "python3.12" in command[-1]
    monkeypatch.setenv("REPRO_SSH_PYTHONPATH", "/srv/repro/src")
    assert "PYTHONPATH=/srv/repro/src" in executor._spawn_command(0)[-1]


@pytest.mark.skipif(
    not os.environ.get("REPRO_SSH_HOSTS"),
    reason="no SSH hosts configured (set REPRO_SSH_HOSTS to run the live ssh backend test)",
)
def test_ssh_sweep_identical_to_serial_live():
    scenarios = small_grid(count=2)
    serial = SweepRunner(jobs=1).run_sweep(scenarios, trace_level="metrics")
    with SweepRunner(jobs=1, executor="ssh") as runner:
        remote = runner.run_sweep(scenarios, trace_level="metrics")
    assert fingerprint(remote) == fingerprint(serial)
