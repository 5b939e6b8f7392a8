"""The discrete-event simulation engine.

A :class:`Simulation` owns the event queue, the network, the recorder, and
the set of processes.  Its job is deliberately small: advance virtual real
time from event to event, dispatch callbacks, and expose scheduling
primitives to the network and the processes.  All protocol logic lives in
the processes; all *observation* lives in the pluggable
:class:`~repro.sim.recorder.Recorder` the engine (and everything bound to
it) emits into.  The default recorder keeps a full :class:`Trace`; passing
an :class:`~repro.sim.recorder.OnlineMetricsRecorder` instead streams scalar
metrics in O(n) memory without retaining history.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Optional

from .clocks import HardwareClock
from .events import EventQueue
from .network import DelayPolicy, Network
from .process import Process
from .recorder import FullTraceRecorder, Recorder
from .trace import Trace


class Simulation:
    """A single-threaded discrete-event simulation of a message-passing system."""

    def __init__(
        self,
        tmin: float = 0.0,
        tdel: float = 0.01,
        delay_policy: Optional[DelayPolicy] = None,
        seed: int = 0,
        recorder: Optional[Recorder] = None,
        strict_scheduling: bool = False,
    ) -> None:
        self._now = 0.0
        #: Raise instead of clamping when an action is scheduled in the past.
        self.strict_scheduling = strict_scheduling
        self.queue = EventQueue()
        self.rng = random.Random(seed)
        self.recorder: Recorder = recorder if recorder is not None else FullTraceRecorder()
        self.network = Network(
            self, tmin=tmin, tdel=tdel, policy=delay_policy, seed=seed + 1, recorder=self.recorder
        )
        self.processes: dict[int, Process] = {}
        self._boot_times: dict[int, float] = {}
        self._stopped = False
        #: Events popped and fired so far, over every run segment and ``step``.
        self.events_fired = 0

    # -- time ----------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current real (simulated) time."""
        return self._now

    @property
    def trace(self) -> Trace:
        """The full execution trace (only with a trace-keeping recorder)."""
        return self.recorder.trace

    # -- scheduling -----------------------------------------------------------

    def schedule_at(self, time: float, action: Callable[..., None], *args) -> list:
        """Schedule ``action(*args)`` at absolute real time ``time`` (>= now); return its queue entry.

        A past ``time`` is clamped to ``now``.  The clamp is annotated
        through the recorder (``on_note``), which a full trace keeps in
        ``Trace.notes`` and the metrics recorder ignores; with
        ``strict_scheduling`` it raises instead, so a scheduling bug cannot
        masquerade as benign event reordering.
        """
        if time < self._now:
            if self.strict_scheduling:
                raise ValueError(
                    f"schedule_at: time {time!r} is in the past (now={self._now!r})"
                )
            self.recorder.on_note(
                f"schedule_at: past time {time!r} clamped to now={self._now!r}"
            )
            time = self._now
        return self.queue.push(time, action, *args)

    def schedule_after(self, delay: float, action: Callable[..., None], *args) -> list:
        """Schedule ``action(*args)`` after ``delay`` units of real time."""
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        return self.queue.push(self._now + delay, action, *args)

    def cancel(self, entry: list) -> None:
        """Cancel a scheduled event by the entry ``schedule_at`` returned."""
        self.queue.cancel(entry)

    # -- population -----------------------------------------------------------

    def add_process(
        self,
        process: Process,
        clock: HardwareClock,
        faulty: Optional[bool] = None,
        boot_time: float = 0.0,
    ) -> Process:
        """Attach ``process`` to the simulation with the given hardware clock.

        ``faulty`` overrides the process's own ``faulty`` attribute for
        observation purposes.  ``boot_time`` is the real time at which
        ``on_start`` runs.
        """
        if process.pid in self.processes:
            raise ValueError(f"duplicate process id {process.pid}")
        is_faulty = process.faulty if faulty is None else faulty
        self.recorder.register_process(process.pid, clock, faulty=is_faulty)
        process.faulty = is_faulty
        process.bind(self, self.network, clock, self.recorder)
        self.processes[process.pid] = process
        self._boot_times[process.pid] = boot_time
        self.schedule_at(boot_time, process._start)
        return process

    def honest_processes(self) -> list[Process]:
        """The processes marked non-faulty, sorted by pid."""
        return [self.processes[pid] for pid in sorted(self.processes) if not self.processes[pid].faulty]

    def faulty_processes(self) -> list[Process]:
        """The processes marked faulty, sorted by pid."""
        return [self.processes[pid] for pid in sorted(self.processes) if self.processes[pid].faulty]

    # -- execution --------------------------------------------------------------

    def step(self) -> bool:
        """Execute the next event; return False if the queue is empty."""
        event = self.queue.pop_until(math.inf)
        if event is None:
            return False
        if event[0] < self._now:
            raise RuntimeError("event queue returned an event in the past")
        self._now = event[0]
        self.events_fired += 1
        event[2](*event[3])
        return True

    def run_until(self, t_end: float):
        """Run until real time ``t_end`` (inclusive of events at ``t_end``).

        Returns the recorder's finalized result: the :class:`Trace` with the
        default full-trace recorder, an
        :class:`~repro.sim.recorder.OnlineMetricsSummary` with the streaming
        metrics recorder.
        """
        return self._run(t_end)

    def run_until_round(
        self,
        target_round: int,
        t_max: float,
        grace: float = 0.0,
        abort_unreachable: bool = False,
        adaptive: bool = True,
    ):
        """Run until every honest process accepted ``target_round`` (or ``t_max``).

        The recorder timestamps the completing resynchronization itself
        (:meth:`~repro.sim.recorder.Recorder.set_round_target`), the loop
        checks one flag per event, and the run ends at the completion
        instant plus the ``grace`` window (capped by ``t_max``, the real-time
        budget of a run that never completes).  With ``grace=0`` the run
        halts on the completing event itself; a positive grace keeps
        simulating ``grace`` units of real time past completion.

        ``abort_unreachable`` (opt-in) ends the run the moment the recorder's
        crash ceiling proves the target round can never complete -- an honest
        crash capped the completable rounds below it -- instead of burning
        the remaining budget.  It never changes a feasible run (the abort
        only fires when the target cannot complete), but it does change the
        measured end time of infeasible ones, which is why it is off by
        default.

        ``adaptive`` selects nothing: this is the only stop rule.  The keyword
        is accepted (``True`` only) because ``perfbench/layers.py`` passes it
        and only a benchmark PR may edit that file.
        """
        if not adaptive:
            raise ValueError("run_until_round has one stop rule; adaptive=False no longer exists")
        if grace < 0:
            raise ValueError(f"grace must be non-negative, got {grace}")
        return self._run(t_max, target_round, grace, abort_unreachable)

    def _run(
        self,
        t_max: float,
        target_round: Optional[int] = None,
        grace: float = 0.0,
        abort_unreachable: bool = False,
    ):
        """The one event loop: fire events up to ``t_max``, stopping early on the armed target."""
        if t_max < self._now:
            raise ValueError("cannot run into the past")
        # An early stop in an earlier run segment must not leak into this one.
        self._stopped = False
        recorder = self.recorder
        queue = self.queue
        pop_until = queue.pop_until
        recorder.set_round_target(target_round, now=self._now)
        fired = 0
        try:
            deadline: Optional[float] = None
            limit = t_max
            while True:
                if deadline is None and grace > 0.0 and recorder.round_reached_at is not None:
                    # Resolved *before* stepping, once an event within t_max
                    # is pending, so a target that was already complete when
                    # the run was armed (e.g. a resumed segment) cannot let an
                    # event past the grace window fire first.  round_reached_at
                    # is always at or before now: the deadline is never past.
                    next_time = queue.peek_time()
                    if next_time is None or next_time > t_max:
                        break
                    deadline = recorder.round_reached_at + grace
                    limit = min(t_max, deadline)
                event = pop_until(limit)
                if event is None:
                    break
                time = event[0]
                if time < self._now:  # step() inlined
                    raise RuntimeError("event queue returned an event in the past")
                self._now = time
                fired += 1
                event[2](*event[3])
                if grace == 0.0 and recorder.round_reached_at is not None:
                    # Halt on the completing event itself.
                    self._stopped = True
                    return recorder.finalize(self._now, self.network.stats)
                if abort_unreachable and recorder.round_target_unreachable:
                    # Every path to the target crashed: finishing the budget
                    # cannot change the verdict, so stop at the fatal event.
                    recorder.on_note(
                        f"abort: round {target_round} unreachable "
                        f"(crash ceiling {recorder.crash_ceiling})"
                    )
                    self._stopped = True
                    return recorder.finalize(self._now, self.network.stats)
            if deadline is not None:
                end = min(t_max, deadline)
                self._stopped = end < t_max
            else:
                end = t_max
            self._now = end
            return recorder.finalize(self._now, self.network.stats)
        finally:
            self.events_fired += fired
            recorder.set_round_target(None, now=self._now)

    @property
    def stopped_early(self) -> bool:
        """Whether the last run ended before its real-time budget ran out."""
        return self._stopped
