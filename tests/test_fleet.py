"""The self-healing fleet: respawn, quarantine, late join, the pending queue.

Recovery-timing coverage for :mod:`repro.runner.exec.remote`'s fleet
machinery, driven by the deterministic chaos harness
(:class:`~repro.runner.exec.faultinject.ChaosController`).  The acceptance
contract lives here too: a sweep whose scripted schedule kills every initial
worker at least once completes without :class:`ExecutorFailure`, reports at
least one respawn, and is float-for-float identical to the serial run.

All waits poll with short intervals against generous deadlines; nothing
sleeps longer than the ~2s fast heartbeat deadline.
"""

from __future__ import annotations

import os
import signal
import sys
import time

import pytest

from repro.cli import main as cli_main
from repro.runner import ExecutorFailure, SubprocessWorkerExecutor, SweepRunner, configure, reset_runner
from repro.runner.exec import ChaosController, ChaosEvent, ChaosSchedule
from repro.runner.exec import faultinject

from test_executors import FAST, fingerprint, parity_grid_scenarios, small_grid, wait_for

#: FAST plus aggressive fleet timings: losses are detected within ~2s and
#: replacements arrive within ~0.1s, so recovery tests finish in seconds.
FLEET = dict(
    FAST,
    respawn_backoff=0.05,
    respawn_backoff_cap=0.5,
    monitor_period=0.05,
)


@pytest.fixture(autouse=True)
def _isolated_default_runner():
    reset_runner()
    yield
    reset_runner()


# -- respawn ---------------------------------------------------------------------------


def test_killed_worker_respawns_and_task_recovers(tmp_path):
    latch = str(tmp_path / "latch")
    with SubprocessWorkerExecutor(2, **FLEET) as executor:
        future = executor.submit(faultinject.hang_once_task, latch)
        wait_for(lambda: os.path.exists(latch))
        victim = int(open(latch).read())  # provably mid-task: it wrote the latch
        os.kill(victim, signal.SIGKILL)
        assert future.result(timeout=60) == "recovered"
        # The slot refills: the fleet returns to full strength by itself,
        # and the replacement completes its handshake (a counted join).
        wait_for(lambda: executor.live_worker_count() == 2)
        wait_for(lambda: executor.stats()["joins"] >= 1)
        stats = executor.stats()
        assert stats["workers_lost"] == 1
        assert stats["respawns"] >= 1
        assert victim not in executor.worker_pids()


def test_respawned_worker_takes_parked_work_after_total_fleet_loss():
    with SubprocessWorkerExecutor(2, **FLEET) as executor:
        assert executor.submit(faultinject.echo_task, "warm").result(timeout=60) == "warm"
        for pid in executor.worker_pids():
            os.kill(pid, signal.SIGKILL)
        # Every worker is dead; with self-healing on, new work stays pending
        # and dispatches to the replacements instead of failing fast.
        futures = [executor.submit(faultinject.square_task, n) for n in range(8)]
        assert [f.result(timeout=60) for f in futures] == [n**2 for n in range(8)]
        stats = executor.stats()
        assert stats["workers_lost"] >= 2
        assert stats["respawns"] >= 2


def test_wedged_worker_probed_then_replaced(tmp_path):
    latch = str(tmp_path / "latch")
    with SubprocessWorkerExecutor(2, **FLEET) as executor:
        future = executor.submit(faultinject.freeze_once_task, latch)
        # SIGSTOP silences heartbeats but keeps pipes open: only the deadline
        # machinery (suspect -> probe -> kill at the full deadline) sees it.
        assert future.result(timeout=60) == "recovered"
        assert executor.stats()["workers_lost"] >= 1
        # The retry recovered on the survivor; the frozen slot's replacement
        # arrives on its own backoff schedule shortly after.
        wait_for(lambda: executor.stats()["respawns"] >= 1)


def test_partitioned_worker_recovers_via_respawn():
    with SubprocessWorkerExecutor(2, **FLEET) as executor:
        assert executor.submit(faultinject.echo_task, "warm").result(timeout=60) == "warm"
        pid = executor.worker_pids()[0]
        assert executor.partition_worker(pid)
        wait_for(lambda: executor.stats()["workers_lost"] >= 1)
        wait_for(lambda: executor.live_worker_count() == 2)
        assert executor.submit(faultinject.echo_task, "back").result(timeout=60) == "back"
        assert executor.partition_worker(-1) is False  # unknown pid: report, don't raise


# -- crash-loop quarantine and late rejoin ---------------------------------------------


class _HalfBrokenExecutor(SubprocessWorkerExecutor):
    """Slot 0 spawns a worker that dies instantly; slot 1 is healthy."""

    def _spawn_command(self, index):
        if index == 0:
            return [sys.executable, "-c", "raise SystemExit(13)"]
        return super()._spawn_command(index)


def test_crash_looping_slot_is_quarantined_not_thrashed():
    executor = _HalfBrokenExecutor(
        2,
        crash_loop_threshold=3,
        crash_loop_window=30.0,
        quarantine_backoff=60.0,  # parked far beyond the test's lifetime
        **FLEET,
    )
    try:
        futures = [executor.submit(faultinject.square_task, n) for n in range(6)]
        assert [f.result(timeout=60) for f in futures] == [n**2 for n in range(6)]
        wait_for(lambda: "quarantined" in executor.slot_states())
        stats = executor.stats()
        assert stats["quarantines"] == 1  # one crash-looping slot, one entry
        # The healthy slot carried the sweep; the broken one stopped burning
        # spawns once the crash-loop threshold tripped.
        assert stats["workers_lost"] <= executor.crash_loop_threshold + 1
    finally:
        executor.close()


def test_failed_quarantine_probes_are_not_counted_as_new_quarantines():
    executor = _HalfBrokenExecutor(
        2,
        crash_loop_threshold=2,
        crash_loop_window=30.0,
        quarantine_backoff=0.05,
        quarantine_backoff_cap=0.1,
        **FLEET,
    )
    try:
        assert executor.submit(faultinject.echo_task, "up").result(timeout=60) == "up"
        # Let several probes fail: each passes through ``spawning`` and back.
        wait_for(lambda: executor.stats()["workers_lost"] >= executor.crash_loop_threshold + 4)
        assert executor.stats()["quarantines"] == 1
    finally:
        executor.close()


class _GatedHostExecutor(SubprocessWorkerExecutor):
    """Slot 0's 'host' is unreachable until the gate file appears."""

    def __init__(self, *args, gate: str, **kwargs) -> None:
        self.gate = gate
        super().__init__(*args, **kwargs)

    def _spawn_command(self, index):
        if index != 0:
            return super()._spawn_command(index)
        script = (
            "import os, runpy, sys\n"
            f"if not os.path.exists({self.gate!r}):\n"
            "    sys.exit(13)\n"
            f"sys.argv = ['repro.worker', '--heartbeat', {str(self.heartbeat_interval)!r}]\n"
            "runpy.run_module('repro.worker', run_name='__main__')\n"
        )
        return [sys.executable, "-c", script]


def test_quarantined_host_rejoins_when_probe_succeeds(tmp_path):
    gate = str(tmp_path / "host-up")
    executor = _GatedHostExecutor(
        2,
        gate=gate,
        crash_loop_threshold=2,
        crash_loop_window=30.0,
        quarantine_backoff=0.1,
        quarantine_backoff_cap=0.3,
        **FLEET,
    )
    try:
        assert executor.submit(faultinject.echo_task, "up").result(timeout=60) == "up"
        wait_for(lambda: "quarantined" in executor.slot_states())
        # The 'host' comes back: the next scheduled probe spawn completes its
        # handshake and the slot rejoins the rotation mid-life.
        open(gate, "w").close()
        wait_for(lambda: executor.live_worker_count() == 2)
        wait_for(lambda: executor.stats()["joins"] >= 1)
        assert "quarantined" not in executor.slot_states()
        futures = [executor.submit(faultinject.square_task, n) for n in range(6)]
        assert [f.result(timeout=60) for f in futures] == [n**2 for n in range(6)]
    finally:
        executor.close()


class _BrokenExecutor(SubprocessWorkerExecutor):
    """Every spawn dies instantly: no slot ever says hello."""

    def _spawn_command(self, index):
        return [sys.executable, "-c", "raise SystemExit(3)"]


def test_fleet_with_every_slot_quarantined_fails_pending_tasks():
    executor = _BrokenExecutor(
        2,
        crash_loop_threshold=3,
        crash_loop_window=30.0,
        quarantine_backoff=0.05,
        quarantine_backoff_cap=0.2,
        **FLEET,
    )
    try:
        future = executor.submit(faultinject.echo_task, "never")
        # Nothing can ever run it: the sweep must hear so, not wait forever.
        with pytest.raises(ExecutorFailure, match=r"all 2 fleet slots are quarantined .*worker process exited"):
            future.result(timeout=30)
        assert executor.stats()["quarantines"] == 2
        # Probes keep running: a task submitted to the dead fleet waits for
        # the next one and fails when that fails too.
        with pytest.raises(ExecutorFailure, match="quarantined"):
            executor.submit(faultinject.echo_task, "still down").result(timeout=30)
    finally:
        executor.close()


# -- the pending queue -----------------------------------------------------------------


def test_respawned_worker_takes_pending_work_at_hello(tmp_path):
    gate = str(tmp_path / "gate")
    with SubprocessWorkerExecutor(2, **FLEET) as executor:
        futures = [executor.submit(faultinject.hang_until_file_task, gate) for _ in range(4)]
        wait_for(lambda: len(executor.busy_worker_pids()) == 2)
        victim, survivor = executor.busy_worker_pids()
        os.kill(victim, signal.SIGKILL)
        # Both workers were busy with two tasks pending: the replacement is
        # handed pending work by its handshake, not by the survivor finishing.
        wait_for(lambda: len(set(executor.busy_worker_pids()) - {victim}) == 2)
        assert survivor in executor.busy_worker_pids()
        assert executor.stats()["joins"] >= 1
        open(gate, "w").close()
        assert [f.result(timeout=60) for f in futures] == [gate] * 4


class _RecordingExecutor(SubprocessWorkerExecutor):
    """Records every dispatch as ``(task_id, wid)`` in order."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.dispatched: list[tuple[int, int]] = []

    def _send_assignments(self, assignments):
        self.dispatched += [(task.task_id, worker.wid) for worker, task in assignments]
        super()._send_assignments(assignments)


def test_task_lost_in_flight_is_dispatched_next_on_a_fresh_incarnation(tmp_path):
    with _RecordingExecutor(1, **FLEET) as executor:
        futures = [executor.submit(faultinject.crash_once_task, str(tmp_path / "latch"))]
        futures += [executor.submit(faultinject.square_task, n) for n in (2, 3)]
        assert [f.result(timeout=60) for f in futures] == ["recovered", 4, 9]
        (_, first), (_, second) = executor.dispatched[:2]
        # Task 0 crashed its worker with tasks 1 and 2 pending: it re-enters
        # at the front of the queue and runs on the replacement incarnation.
        assert first != second
        assert executor.dispatched == [(0, first), (0, second), (1, second), (2, second)]
        assert executor.stats()["retries"] == 1


def test_removed_fleet_options_are_rejected_not_ignored(capsys):
    with pytest.raises(TypeError):
        SweepRunner(jobs=2, executor="subprocess", executor_options={"respawn": False})
    with pytest.raises(TypeError):
        configure(executor="subprocess", autoscale=True)
    with pytest.raises(TypeError):
        SubprocessWorkerExecutor(2, max_workers=4)
    with pytest.raises(SystemExit) as exit_info:
        cli_main(["run", "--executor", "subprocess", "--autoscale"])
    assert exit_info.value.code == 2
    assert "--autoscale" in capsys.readouterr().err


# -- the chaos harness -----------------------------------------------------------------


def test_chaos_schedule_parse_and_validation():
    schedule = ChaosSchedule.parse("kill@1, wedge@3,partition@5", seed=7)
    assert [(e.action, e.after_results) for e in schedule.events] == [
        ("kill", 1),
        ("wedge", 3),
        ("partition", 5),
    ]
    assert schedule.seed == 7
    assert [e.after_results for e in ChaosSchedule.kill_every_worker(3).events] == [1, 2, 3]
    with pytest.raises(ValueError, match="action@count"):
        ChaosSchedule.parse("kill")
    with pytest.raises(ValueError, match="unknown chaos action"):
        ChaosSchedule.parse("nuke@1")
    with pytest.raises(ValueError, match="no events"):
        ChaosSchedule.parse(" , ")
    with pytest.raises(ValueError, match="after_results"):
        ChaosEvent(0, "kill")


def test_chaos_controller_restores_submit_on_exit():
    with SubprocessWorkerExecutor(1, **FLEET) as executor:
        original = executor.submit
        with ChaosController(executor, ChaosSchedule.parse("kill@99")) as chaos:
            assert executor.submit != original
            assert executor.submit(faultinject.echo_task, 1).result(timeout=60) == 1
        assert executor.submit == original
        assert chaos.fired == []  # event 99 never came due


def test_chaos_kill_every_worker_murders_whole_initial_fleet():
    with SubprocessWorkerExecutor(2, **FLEET) as executor:
        # Workers spawn lazily on the first submit; warm the fleet first.
        assert executor.submit(faultinject.echo_task, 0).result(timeout=60) == 0
        initial = set(executor.worker_pids())
        assert len(initial) == 2
        schedule = ChaosSchedule.kill_every_worker(2, seed=3)
        with ChaosController(executor, schedule) as chaos:
            results = []
            for n in range(10):
                results.append(executor.submit(faultinject.square_task, n).result(timeout=60))
        assert results == [n**2 for n in range(10)]
        assert len(chaos.fired) == 2
        assert len(chaos.victims & initial) >= 2  # both initial workers were hit
        assert executor.stats()["respawns"] >= 2


# -- acceptance: churn-invariant sweeps ------------------------------------------------


def test_sweep_under_continuous_worker_murder_is_float_identical():
    """The PR's acceptance criterion: a scripted schedule kills every worker
    at least once mid-sweep; the sweep still completes (no ExecutorFailure),
    matches the serial run float-for-float, and reports the respawns."""
    scenarios = parity_grid_scenarios() + small_grid(count=3, rounds=6)
    serial = SweepRunner(jobs=1).run_sweep(scenarios, trace_level="metrics")
    executor = SubprocessWorkerExecutor(2, **FLEET)
    with SweepRunner(jobs=2, executor=executor, chunk_size=1) as runner:
        schedule = ChaosSchedule.kill_every_worker(2, stride=2, seed=11)
        with ChaosController(executor, schedule) as chaos:
            churned = runner.run_sweep(scenarios, trace_level="metrics")
        stats = runner.executor_stats()
    assert fingerprint(churned) == fingerprint(serial)
    assert len(chaos.fired) == 2
    assert all(pid is not None for _, _, pid in chaos.fired)
    assert stats["workers_lost"] >= 2
    assert stats["respawns"] >= 1


def test_sweep_survives_wedge_and_partition_schedule():
    scenarios = small_grid(count=6, rounds=6)
    serial = SweepRunner(jobs=1).run_sweep(scenarios, trace_level="metrics")
    executor = SubprocessWorkerExecutor(2, **FLEET)
    with SweepRunner(jobs=2, executor=executor, chunk_size=1) as runner:
        schedule = ChaosSchedule.parse("partition@1,wedge@2", seed=5)
        with ChaosController(executor, schedule) as chaos:
            churned = runner.run_sweep(scenarios, trace_level="metrics")
    assert fingerprint(churned) == fingerprint(serial)
    assert [action for action, _, _ in chaos.fired] == ["partition", "wedge"]


# -- cumulative provenance -------------------------------------------------------------


def test_executor_stats_cumulative_across_close_and_backend_drop():
    scenarios = small_grid(count=4, rounds=4)
    runner = SweepRunner(jobs=2, executor="subprocess", chunk_size=1)
    try:
        runner.run_sweep(scenarios, trace_level="metrics")
        first = runner.executor_stats()
        assert first["tasks"] >= len(scenarios)
        runner.close()  # drops the spec-spawned backend entirely
        after_close = runner.executor_stats()
        assert after_close["tasks"] == first["tasks"]
        runner.run_sweep(scenarios, trace_level="metrics")
        second = runner.executor_stats()
        # The respawned backend's counters stack on the banked ones.
        assert second["tasks"] >= first["tasks"] + len(scenarios)
    finally:
        runner.close()


def test_executor_stats_survive_mid_sweep_respawn_cycle():
    with SubprocessWorkerExecutor(2, **FLEET) as executor:
        assert executor.submit(faultinject.echo_task, 1).result(timeout=60) == 1
        for pid in executor.worker_pids():
            os.kill(pid, signal.SIGKILL)
        assert executor.submit(faultinject.echo_task, 2).result(timeout=60) == 2
        wait_for(lambda: executor.stats()["respawns"] >= 2)
        # Both replacements must have said hello (a counted join each) before
        # the snapshot, or one landing during close() would move ``joins``.
        wait_for(lambda: executor.slot_states() == ["live", "live"])
        before = executor.stats()
        executor.close()
        assert executor.stats() == before  # close() never zeroes provenance
        # And the next incarnation keeps counting upward from there.
        assert executor.submit(faultinject.echo_task, 3).result(timeout=60) == 3
        assert executor.stats()["tasks"] == before["tasks"] + 1


def test_fleet_policy_timing_is_bounded():
    """Guard the suite's wall-clock budget: every recovery above rides on
    sub-second backoffs, so a fresh executor must spawn, respawn once and
    close within a few seconds."""
    started = time.monotonic()
    with SubprocessWorkerExecutor(1, **FLEET) as executor:
        assert executor.submit(faultinject.echo_task, "t").result(timeout=60) == "t"
        os.kill(executor.worker_pids()[0], signal.SIGKILL)
        assert executor.submit(faultinject.echo_task, "t2").result(timeout=60) == "t2"
    assert time.monotonic() - started < 30.0
