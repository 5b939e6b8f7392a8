"""Pluggable instrumentation: recorders observe executions, the engine emits.

Historically the engine *was* the observer: every simulation built a full
:class:`~repro.sim.trace.Trace` (per-process clocks, every adjustment, every
resynchronization) and the analysis layer re-walked the union of all
logical-clock breakpoints after the fact.  That is the right tool for the
exact-measurement experiments, but it makes every scenario pay O(rounds * n)
memory and a full post-hoc analysis pass even when only a handful of scalar
metrics are wanted -- which is what caps large scaling sweeps.

This module separates the two concerns.  The engine, the framework
:class:`~repro.sim.process.Process`, the network and the algorithm base
classes emit observation events into a :class:`Recorder`:

* :meth:`Recorder.on_adjustment` -- a logical-clock adjustment took effect,
* :meth:`Recorder.on_resync` -- a resynchronization (round acceptance),
* :meth:`Recorder.on_crash` -- a process halted,
* :meth:`Recorder.on_message` -- the network accepted a message for delivery,
* :meth:`Recorder.on_note` -- a free-form annotation,
* :meth:`Recorder.finalize` -- the run (segment) ended.

Two implementations ship here:

* :class:`FullTraceRecorder` reproduces the historical behaviour exactly: it
  owns a :class:`~repro.sim.trace.Trace` and every measurement computed from
  it is byte-identical to the pre-refactor code path.
* :class:`OnlineMetricsRecorder` streams the worst-case-exact scalar metrics
  (precision, accuracy envelope, window-rate extremes, rounds, message
  counts), evaluating logical clocks at exactly the same breakpoints the
  post-hoc analysis would.  Apart from a per-resynchronization sample
  buffer for the window-rate extremes, it retains no history.  Its
  results are float-for-float identical to the full-trace pipeline for every
  metric it reports (see ``tests/test_recorder_parity.py``).

Recorders also decide when a run stops.  Round progress -- each honest
process's largest accepted round, the completed round and the crash ceiling
-- is one ledger in the :class:`Recorder` base, fed by both recorders'
``register_process`` / ``on_resync`` / ``on_crash``.  The engine arms a
target round via :meth:`Recorder.set_round_target` and the ledger timestamps
the completing resynchronization in O(1) amortized time (one O(n) rescan
per completed round), so a run halts the moment the target round completes.

The recorder seam is where execution backends beyond the single in-process
engine plug in without touching the analysis layer: the sharded backend
(:mod:`repro.runner.sharded`) runs independent replications in worker
processes, each under its own ``OnlineMetricsRecorder``, and folds the
resulting :class:`OnlineMetricsSummary` objects through the associative
:func:`merge_summaries` algebra -- max-combining worst-case skews and
envelope constants, min-combining the completed round, summing message
counts, and concatenating the per-process liveness triples and retained
breakpoint samples; the exact window-rate hull pass runs once, over that
union, when the result is compacted (:meth:`OnlineMetricsSummary.compact`)
-- so a sharded run is float-for-float identical to the same replications
folded serially.
"""

from __future__ import annotations

import heapq
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple, Optional

from .trace import ProcessTrace, ResyncEvent, Trace

if TYPE_CHECKING:  # pragma: no cover
    from .clocks import HardwareClock
    from .network import Envelope, NetworkStats


class RecorderError(RuntimeError):
    """Raised when a recorder cannot serve a request (e.g. no trace kept)."""


class MessageSample(NamedTuple):
    """A lightweight summary of one network message, as sampled by
    :class:`OnlineMetricsRecorder(sample_messages=K)`.

    Everything a message-level trace needs for provenance and wire-format
    debugging -- who sent what kind of message to whom, when, and with what
    delay -- without retaining the payload itself, so a sample stays a few
    dozen bytes regardless of message size.
    """

    msg_id: int
    sender: int
    dest: int
    #: The payload's class name (``"ResyncMessage"``, ...), not the payload.
    kind: str
    send_time: float
    deliver_time: float


class Recorder(ABC):
    """Observer interface the simulation substrate emits into.

    Emissions arrive in nondecreasing real-time order (the engine is a
    single-threaded discrete-event loop).  ``register_process`` is called for
    every process before the first event; ``finalize`` is called at the end
    of every ``run_until`` and returns the recorder's result object.
    """

    @abstractmethod
    def register_process(self, pid: int, clock: "HardwareClock", faulty: bool = False) -> None:
        """Attach a process (and its hardware clock) to the recording."""

    @abstractmethod
    def on_adjustment(self, pid: int, time: float, adjustment: float) -> None:
        """From real time ``time`` on, ``C_pid(t) = H_pid(t) + adjustment``."""

    @abstractmethod
    def on_resync(self, event: ResyncEvent) -> None:
        """Process ``event.pid`` accepted round ``event.round`` at ``event.time``."""

    @abstractmethod
    def on_crash(self, pid: int, time: float) -> None:
        """Process ``pid`` halted at real time ``time``."""

    def on_message(self, envelope: "Envelope") -> None:
        """The network accepted ``envelope`` for delivery (default: ignore)."""

    def on_note(self, text: str) -> None:
        """Attach a free-form annotation (default: ignore)."""

    @abstractmethod
    def finalize(self, end_time: float, network_stats: "NetworkStats"):
        """Close the recording at ``end_time`` and return the result object."""

    # -- round progress (the engine's stop rule) ------------------------------

    def __init__(self) -> None:
        #: Largest round each honest pid has accepted (0 before its first).
        self._accepted: dict[int, int] = {}
        #: min(self._accepted.values()), and how many pids sit at it: the
        #: min can only move when the last of them advances, so it is
        #: rescanned once per completed round, not once per acceptance.
        self._completed = 0
        self._at_completed = 0
        #: Largest round every honest process can still complete: once an
        #: honest process crashes, no round above its progress is ever
        #: completed by all (inf while every honest process is alive).
        self.crash_ceiling: float = math.inf
        #: Round the engine is waiting for, or None when no target is armed.
        self._round_target: Optional[int] = None
        #: When the armed target round first completed (None while it has
        #: not); a plain attribute, because the stop rule reads it per event.
        self.round_reached_at: Optional[float] = None

    def _join_ledger(self, pid: int) -> None:
        """Honest ``pid`` joins round tracking at round 0."""
        self._accepted[pid] = 0
        if self._completed:
            self._completed = self._at_completed = 0
        self._at_completed += 1

    def _ledger_accept(self, pid: int, round_: int, time: float) -> None:
        """Honest ``pid`` accepted ``round_`` at ``time`` (other pids are ignored)."""
        level = self._accepted.get(pid)
        if level is None or round_ <= level:
            return
        self._accepted[pid] = round_
        if level == self._completed:
            self._at_completed -= 1
            if not self._at_completed:
                self._rescan_completed()
            if (
                self._round_target is not None
                and self.round_reached_at is None
                and self._completed >= self._round_target
            ):
                self.round_reached_at = time

    def _rescan_completed(self) -> None:
        levels = list(self._accepted.values())
        self._completed = min(levels)
        self._at_completed = levels.count(self._completed)

    def _ledger_crash(self, pid: int) -> None:
        """Honest ``pid`` halted: cap the completable rounds at its progress."""
        level = self._accepted.get(pid)
        if level is not None and level < self.crash_ceiling:
            self.crash_ceiling = level

    def min_completed_round(self) -> int:
        """Largest round accepted by every honest process (0 if none)."""
        return self._completed

    @property
    def round_target_unreachable(self) -> bool:
        """Whether the armed target round can no longer complete.

        True exactly when a target is armed, has not completed, and an honest
        crash capped the completable rounds below it.  The engine's opt-in
        early abort (``run_until_round(abort_unreachable=True)``) reads this
        after every event to stop infeasible runs without burning the full
        budget.
        """
        return (
            self._round_target is not None
            and self.round_reached_at is None
            and self.crash_ceiling < self._round_target
        )

    def set_round_target(self, target: Optional[int], now: float = 0.0) -> None:
        """Arm (or with ``None`` disarm) completion tracking of ``target``.

        ``Simulation.run_until_round`` arms a target and reads
        :attr:`round_reached_at` after every event; the ledger timestamps
        the completing resynchronization.
        """
        self._round_target = target
        self.round_reached_at = None
        if target is not None and self._completed >= target:
            self.round_reached_at = now

    # -- full-trace access (only meaningful for history-keeping recorders) ----

    @property
    def trace(self) -> Trace:
        """The full execution trace (raises unless this recorder keeps one)."""
        raise RecorderError(
            f"{type(self).__name__} does not keep an execution trace; "
            "use trace_level='full' (FullTraceRecorder) for history-based analysis"
        )

    def process_trace(self, pid: int) -> ProcessTrace:
        """Process ``pid``'s trace (raises unless this recorder keeps traces)."""
        raise RecorderError(
            f"{type(self).__name__} does not keep per-process traces; "
            "use trace_level='full' (FullTraceRecorder) for history-based analysis"
        )


class FullTraceRecorder(Recorder):
    """The historical observer: record everything into a :class:`Trace`.

    Every measurement the analysis layer computes from the resulting trace is
    exactly what the pre-recorder engine produced.  Round progress is the
    base class's ledger, not a scan of the trace.
    """

    def __init__(self) -> None:
        super().__init__()
        self._trace = Trace()

    @property
    def trace(self) -> Trace:
        """The :class:`Trace` being recorded (live; finalized by :meth:`finalize`)."""
        return self._trace

    def process_trace(self, pid: int) -> ProcessTrace:
        """Process ``pid``'s piecewise-linear trace."""
        return self._trace.processes[pid]

    def register_process(self, pid: int, clock: "HardwareClock", faulty: bool = False) -> None:
        """Open a per-process trace; honest processes join round tracking."""
        self._trace.add_process(pid, clock, faulty=faulty)
        if not faulty:
            self._join_ledger(pid)

    def on_adjustment(self, pid: int, time: float, adjustment: float) -> None:
        """Append the adjustment breakpoint to ``pid``'s trace."""
        self._trace.record_adjustment(pid, time, adjustment)

    def on_resync(self, event: ResyncEvent) -> None:
        """Record the acceptance; the ledger ignores faulty processes."""
        self._trace.record_resync(event)
        self._ledger_accept(event.pid, event.round, event.time)

    def on_crash(self, pid: int, time: float) -> None:
        """Record the halt; an honest crash caps the ledger's ceiling."""
        self._trace.record_crash(pid, time)
        self._ledger_crash(pid)

    def on_note(self, text: str) -> None:
        """Append the annotation to the trace."""
        self._trace.note(text)

    def finalize(self, end_time: float, network_stats: "NetworkStats") -> Trace:
        """Stamp the end time and message statistics; return the trace."""
        self._trace.end_time = end_time
        self._trace.total_messages = network_stats.total_messages
        self._trace.message_stats = dict(network_stats.messages_by_type)
        return self._trace


# ---------------------------------------------------------------------------
# Online (streaming) metrics
# ---------------------------------------------------------------------------


class _ProcState:
    """O(1) per-process streaming state of :class:`OnlineMetricsRecorder`."""

    __slots__ = (
        "pid",
        "clock",
        "faulty",
        "adj",
        "resync_count",
        "prev_resync_time",
        "min_round",
        "first_gap",
        "bp_seq",
        "bp_idx",
        "value_at_steady",
        "env_max_g",
        "env_drawdown",
        "env_min_h",
        "env_rise",
        "win_t",
        "win_v",
    )

    def __init__(self, pid: int, clock: "HardwareClock", faulty: bool) -> None:
        self.pid = pid
        self.clock = clock
        self.faulty = faulty
        self.adj = 0.0
        self.resync_count = 0
        self.prev_resync_time = 0.0
        self.min_round = 0
        self.first_gap: Optional[int] = None
        self.bp_seq = clock.breakpoints()
        self.bp_idx = 0
        self.value_at_steady = 0.0
        # Envelope drawdown/run-up state (see analysis.envelope.fit_envelope).
        self.env_max_g = float("-inf")
        self.env_drawdown = 0.0
        self.env_min_h = float("inf")
        self.env_rise = 0.0
        # Steady-window breakpoint samples retained for the window-rate pass.
        self.win_t: list = []
        self.win_v: list = []


@dataclass(frozen=True)
class OnlineMetricsSummary:
    """Scalar measurements streamed by :class:`OnlineMetricsRecorder`.

    Field-for-field, each value equals what the full-trace pipeline computes
    (:mod:`repro.analysis.metrics` / :mod:`repro.analysis.envelope`) for the
    same execution; ``tests/test_recorder_parity.py`` asserts exact equality.
    This includes the window-rate extremes: the recorder retains the
    steady-window breakpoint samples and runs the same hull-bounded
    maximum-average-segment pass the post-hoc analysis uses
    (:func:`repro.analysis.envelope.window_rate_extremes`), so they too are
    float-for-float identical.  They are ``None`` on every summary that still
    carries :attr:`window_samples` -- a finalized one, or a fold of them --
    until :meth:`compact` derives them, once per result, and stay ``None``
    when the steady interval is empty.

    Summaries form a merge algebra (see :func:`merge_summaries`): summaries
    of *independent* executions -- the replications of one configuration, or
    disjoint process groups under one fault strategy -- fold into the summary
    a single observer of the combined system would report, which is what
    lets the sharded backend (:mod:`repro.runner.sharded`) split the
    replication axis across worker processes without changing any measured
    value.
    """

    end_time: float
    steady_start: float
    steady_skew: float
    overall_skew: float
    period_min: float
    period_max: float
    period_count: int
    acceptance_spread: float
    max_adjustment: Optional[float]
    max_backward_adjustment: float
    completed_round: int
    max_round: int
    #: One ``(first, last, first_gap)`` entry per honest process, ``None``
    #: for a process that never resynchronized.
    liveness_triples: tuple
    slowest_long_run_rate: Optional[float]
    fastest_long_run_rate: Optional[float]
    slowest_window_rate: Optional[float]
    fastest_window_rate: Optional[float]
    envelope_a: Optional[float]
    envelope_b: Optional[float]
    worst_offset_from_real_time: Optional[float]
    total_messages: int
    message_stats: dict
    notes: list
    #: One ``(times, values, long_run_rate)`` triple per honest process --
    #: the steady-window breakpoint samples the window-rate hull pass runs
    #: over, retained so :func:`merge_summaries` can concatenate them and
    #: :meth:`compact` run that pass once over the union.  Compacting strips
    #: it (``None``), so final results stay lean.
    window_samples: Optional[tuple] = None
    #: Every K-th message's :class:`MessageSample`, in send order; ``None``
    #: unless the recorder was built with ``sample_messages=K``.  Merging
    #: concatenates in input order, so a distributed run ships a bounded
    #: message-level trace home alongside its scalar metrics.
    message_samples: Optional[tuple] = None

    def liveness(self, expected_round: int) -> bool:
        """Exact replica of :func:`repro.analysis.metrics.liveness`.

        Accepted rounds are strictly increasing per process, so contiguity
        plus the extremes in :attr:`liveness_triples` determine subset
        membership of the needed round range.
        """
        for triple in self.liveness_triples:
            if triple is None:
                return False
            first, last, first_gap = triple
            start = max(first, 1)
            if start > expected_round:
                continue  # needed range is empty for this process
            if last < expected_round:
                return False
            if first_gap is not None and first_gap <= expected_round:
                return False
        return True

    def messages_per_round(self) -> float:
        """Exact replica of :func:`repro.analysis.metrics.messages_per_completed_round`."""
        if self.completed_round <= 0:
            return float(self.total_messages)
        return self.total_messages / self.completed_round

    def long_run_rates(self, period: float) -> Optional[tuple[float, float]]:
        """(slowest, fastest) long-run rates, or None if the steady interval
        is too short (not longer than one resynchronization ``period``) for
        accuracy to be meaningful -- the same availability gate the
        full-trace pipeline applies."""
        if self.end_time - self.steady_start > period and self.slowest_long_run_rate is not None:
            return (self.slowest_long_run_rate, self.fastest_long_run_rate)
        return None

    def compact(self) -> "OnlineMetricsSummary":
        """This summary in final form: window-rate extremes derived, samples dropped.

        The one place ``slowest_window_rate`` / ``fastest_window_rate`` are
        computed: the exact hull pass
        (:func:`repro.analysis.envelope.combined_window_extremes`) over the
        retained samples with this summary's steady interval.  An already
        compacted summary is returned unchanged.
        """
        if self.window_samples is None:
            return self
        import dataclasses

        # Deferred import: the analysis package imports this module (for
        # OnlineMetricsSummary), so the hull pass cannot be a top-level
        # dependency without creating an import cycle.
        from ..analysis.envelope import combined_window_extremes

        extremes = combined_window_extremes(self.window_samples, self.steady_start, self.end_time)
        slowest, fastest = extremes if extremes is not None else (None, None)
        return dataclasses.replace(
            self, slowest_window_rate=slowest, fastest_window_rate=fastest, window_samples=None
        )


def _opt_min(values) -> Optional[float]:
    present = [v for v in values if v is not None]
    return min(present) if present else None


def _opt_max(values) -> Optional[float]:
    present = [v for v in values if v is not None]
    return max(present) if present else None


def merge_summaries(summaries) -> OnlineMetricsSummary:
    """Fold summaries of independent executions into one combined summary.

    The inputs must observe *disjoint* process populations -- independent
    replications of one configuration, or non-interacting process groups
    under the same fault strategy.  The result is the summary one observer of
    the union system would report:

    * worst-case quantities (skews, acceptance spread, adjustment magnitudes,
      envelope constants, real-time offset) max-combine,
    * the globally completed round min-combines (every process of every group
      must accept it), ``max_round`` max-combines,
    * resynchronization-period extremes min/max-combine and their interval
      counts, message counts and per-type message stats sum,
    * per-process liveness triples, notes, retained window samples and
      sampled message summaries concatenate in input order,
    * the steady interval is the union system's: it starts when the *last*
      group became steady and ends at the *latest* end time, and the
      long-run-rate extremes min/max-combine,
    * the window-rate extremes are left ``None``: they are derived once, at
      :meth:`OnlineMetricsSummary.compact`, by running the exact hull pass
      (:func:`repro.analysis.envelope.combined_window_extremes`) over the
      union of every group's retained breakpoint samples with the combined
      steady interval's quarter-width minimum window -- not by combining the
      per-group extremes, whose minimum windows differ.

    Every combining operation is exact (float min/max, integer sums, ordered
    concatenation) and the window-rate pass sees only raw samples, so the
    fold is associative and -- up to the order of the concatenated sequences
    -- commutative: any shard grouping of the same replications produces
    float-for-float the same summary.  A compacted input has dropped its
    samples and cannot be folded further.
    """
    summaries = list(summaries)
    if not summaries:
        raise ValueError("merge_summaries needs at least one summary")
    if len(summaries) == 1:
        return summaries[0]
    if any(s.window_samples is None for s in summaries):
        raise ValueError("merge_summaries folds uncompacted summaries; compact() only the final result")

    message_stats: dict = {}
    for s in summaries:
        for kind, count in s.message_stats.items():
            message_stats[kind] = message_stats.get(kind, 0) + count

    if all(s.message_samples is None for s in summaries):
        message_samples: Optional[tuple] = None
    else:
        message_samples = tuple(
            sample for s in summaries if s.message_samples is not None for sample in s.message_samples
        )

    return OnlineMetricsSummary(
        end_time=max(s.end_time for s in summaries),
        steady_start=max(s.steady_start for s in summaries),
        steady_skew=max(s.steady_skew for s in summaries),
        overall_skew=max(s.overall_skew for s in summaries),
        period_min=min(s.period_min for s in summaries),
        period_max=max(s.period_max for s in summaries),
        period_count=sum(s.period_count for s in summaries),
        acceptance_spread=max(s.acceptance_spread for s in summaries),
        max_adjustment=_opt_max(s.max_adjustment for s in summaries),
        max_backward_adjustment=max(s.max_backward_adjustment for s in summaries),
        completed_round=min(s.completed_round for s in summaries),
        max_round=max(s.max_round for s in summaries),
        liveness_triples=tuple(t for s in summaries for t in s.liveness_triples),
        slowest_long_run_rate=_opt_min(s.slowest_long_run_rate for s in summaries),
        fastest_long_run_rate=_opt_max(s.fastest_long_run_rate for s in summaries),
        slowest_window_rate=None,  # derived by compact()
        fastest_window_rate=None,
        envelope_a=_opt_max(s.envelope_a for s in summaries),
        envelope_b=_opt_max(s.envelope_b for s in summaries),
        worst_offset_from_real_time=_opt_max(s.worst_offset_from_real_time for s in summaries),
        total_messages=sum(s.total_messages for s in summaries),
        message_stats=message_stats,
        notes=[note for s in summaries for note in s.notes],
        window_samples=tuple(entry for s in summaries for entry in s.window_samples),
        message_samples=message_samples,
    )


class OnlineMetricsRecorder(Recorder):
    """Stream worst-case-exact metrics in O(n) memory, retaining no history.

    Honest logical clocks are piecewise linear, so all worst-case quantities
    are attained at breakpoints (hardware-clock rate changes and adjustment
    instants).  Instead of storing the history and re-walking it afterwards,
    this recorder evaluates skew and the accuracy envelope *as the
    breakpoints stream past*:

    * a lazy merge (heap) over each clock's static breakpoint sequence
      supplies rate-change instants between adjustment events;
    * adjustments at one instant are batched so the left limit ("just
      before") and the settled value ("just after") are evaluated exactly
      like the post-hoc analysis evaluates both sides of a jump;
    * the accuracy envelope constants use the same one-pass drawdown/run-up
      recursion as :func:`repro.analysis.envelope.fit_envelope`, started at
      the steady-state instant.

    The evaluation points are exactly the post-hoc analysis's evaluation
    points, so every reported metric is float-for-float identical to the
    full-trace pipeline -- not an approximation.

    ``rate_low``/``rate_high`` parameterize the accuracy envelope fit
    (scenarios pass the model's admissible hardware rates); when omitted the
    envelope constants are reported as ``None``.

    One measurement inherently needs history: the extreme average rates over
    windows of at least a quarter of the steady interval.  The recorder
    retains the steady-window breakpoint samples -- two floats per
    adjustment plus one per hardware-clock rate change, so memory grows with
    the number of resynchronizations, never with the event count -- and
    ``finalize`` hands them over in
    :attr:`OnlineMetricsSummary.window_samples` with the extremes ``None``.
    :meth:`OnlineMetricsSummary.compact` runs the same
    :func:`~repro.analysis.envelope.window_rate_extremes` hull pass the
    post-hoc analysis uses, once per result, over whatever union of
    executions the summary has been merged into.

    ``sample_messages=K`` turns on the sampling message trace: every K-th
    network message is retained as a :class:`MessageSample` (sender,
    destination, payload class, send/delivery times -- never the payload),
    giving message-level provenance at 1/K of the memory of a full trace and
    none of the default path's cost when off.  Samples ride home in
    :attr:`OnlineMetricsSummary.message_samples` and concatenate under the
    merge algebra, so distributed and sharded runs can ship a bounded
    message trace back to the parent.

    The recorder observes one run segment: after :meth:`finalize`, new events
    are rejected (re-finalizing at the same end time returns the cached
    summary).  Multi-segment runs that resume after ``run_until`` need the
    full-trace recorder.
    """

    def __init__(
        self,
        rate_low: Optional[float] = None,
        rate_high: Optional[float] = None,
        sample_messages: Optional[int] = None,
    ) -> None:
        super().__init__()
        if (rate_low is None) != (rate_high is None):
            raise ValueError("rate_low and rate_high must be given together")
        if sample_messages is not None and sample_messages < 1:
            raise ValueError(f"sample_messages must be at least 1 (or None to disable), got {sample_messages}")
        self.rate_low = rate_low
        self.rate_high = rate_high
        self.sample_messages = sample_messages
        self._messages_seen = 0
        self._message_samples: list[MessageSample] = []
        self._procs: dict[int, _ProcState] = {}
        self._honest: list[_ProcState] = []
        self._sealed = False
        self._finalized: Optional[tuple[float, OnlineMetricsSummary]] = None
        # Merged clock-breakpoint walk.
        self._heap: list[tuple[float, int]] = []
        # Current adjustment batch (all events at one real-time instant).
        self._batch_time: Optional[float] = None
        self._batch_before: dict[int, float] = {}
        self._batch_has_adjustment = False
        self._batch_completes_steady = False
        self._batch_initial = False
        # Skew accumulators.
        self._overall_skew = 0.0
        self._steady_skew = 0.0
        self._steady_start: Optional[float] = None
        self._unsynced = 0
        # Accuracy (active from the steady-state instant on).
        self._worst_offset = 0.0
        # Resynchronization structure.
        self._period_min = float("inf")
        self._period_max = 0.0
        self._period_count = 0
        self._max_adjustment: Optional[float] = None
        self._max_backward = 0.0
        self._acceptance_spread = 0.0
        self._round_times: dict[int, list] = {}  # round -> [min_t, max_t, count]
        self._notes: list[str] = []

    # -- registration --------------------------------------------------------

    def register_process(self, pid: int, clock: "HardwareClock", faulty: bool = False) -> None:
        """Attach a process before the first event; honest ones join skew tracking."""
        if self._sealed:
            raise RecorderError("cannot register processes after the first recorded event")
        if pid in self._procs:
            raise ValueError(f"process {pid} already registered in recorder")
        self._procs[pid] = _ProcState(pid, clock, faulty)
        if not faulty:
            self._join_ledger(pid)

    def _seal(self) -> None:
        if self._sealed:
            return
        self._sealed = True
        self._honest = [self._procs[pid] for pid in sorted(self._procs) if not self._procs[pid].faulty]
        self._unsynced = len(self._honest)
        for index, proc in enumerate(self._honest):
            if proc.bp_seq:
                heapq.heappush(self._heap, (proc.bp_seq[0], index))
                proc.bp_idx = 1
        # The post-hoc analysis always evaluates at t = 0; model that as an
        # implicit batch so any adjustments recorded at 0 settle first.
        self._batch_time = 0.0
        self._batch_initial = True

    # -- exact skew evaluation ----------------------------------------------

    def _skew(self, t: float) -> float:
        """Max pairwise logical-clock difference at ``t`` under current adjustments."""
        if not self._honest:
            return 0.0
        lo = math.inf
        hi = -math.inf
        for proc in self._honest:
            value = proc.clock.read(t) + proc.adj
            if value < lo:
                lo = value
            if value > hi:
                hi = value
        return hi - lo

    def _note_skew(self, t: float, overall: bool, steady: bool) -> None:
        if not self._honest:
            return
        value = self._skew(t)
        if overall and value > self._overall_skew:
            self._overall_skew = value
        if steady and self._steady_start is not None and t >= self._steady_start and value > self._steady_skew:
            self._steady_skew = value

    # -- accuracy envelope (one-pass drawdown/run-up) ------------------------

    def _env_sample(self, proc: _ProcState, t: float, value: float) -> None:
        """Feed one breakpoint sample into the per-process envelope recursion."""
        # Retain the steady-window samples for the exact window-rate pass --
        # the same (time, value) stream the post-hoc analysis enumerates via
        # _clock_samples.
        proc.win_t.append(t)
        proc.win_v.append(value)
        offset = abs(value - t)
        if offset > self._worst_offset:
            self._worst_offset = offset
        if self.rate_low is None:
            return
        g = value - self.rate_low * t
        if g > proc.env_max_g:
            proc.env_max_g = g
        drawdown = proc.env_max_g - g
        if drawdown > proc.env_drawdown:
            proc.env_drawdown = drawdown
        h = value - self.rate_high * t
        if h < proc.env_min_h:
            proc.env_min_h = h
        rise = h - proc.env_min_h
        if rise > proc.env_rise:
            proc.env_rise = rise

    # -- breakpoint walk ------------------------------------------------------

    def _walk(self, limit: float, inclusive: bool = False) -> None:
        """Evaluate at merged clock breakpoints below (or up to) ``limit``."""
        heap = self._heap
        while heap:
            time, index = heap[0]
            if time > limit or (time == limit and not inclusive):
                return
            heapq.heappop(heap)
            proc = self._honest[index]
            if proc.bp_idx < len(proc.bp_seq):
                heapq.heappush(heap, (proc.bp_seq[proc.bp_idx], index))
                proc.bp_idx += 1
            self._note_skew(time, overall=True, steady=True)
            if self._steady_start is not None and time >= self._steady_start:
                self._env_sample(proc, time, proc.clock.read(time) + proc.adj)

    # -- batch machinery ------------------------------------------------------

    def _advance(self, t: float) -> None:
        if self._finalized is not None:
            raise RecorderError(
                "OnlineMetricsRecorder cannot record past finalize(); use trace_level='full' to resume runs"
            )
        self._seal()
        if self._batch_time is not None:
            if t < self._batch_time:
                raise RuntimeError("recorder events must arrive in time order")
            if t > self._batch_time:
                self._close_batch()
        self._walk(t)

    def _open_batch(self, t: float) -> None:
        if self._batch_time is None:
            self._batch_time = t

    def _close_batch(self) -> None:
        t = self._batch_time
        completes_steady = self._batch_completes_steady
        steady_active = self._steady_start is not None
        if completes_steady:
            # Steady state begins here: seed every honest process's envelope
            # recursion with both sides of the t_start sample, exactly as the
            # post-hoc _clock_samples pass does.
            for proc in self._honest:
                before_adj = self._batch_before.get(proc.pid, proc.adj)
                reading = proc.clock.read(t)
                self._env_sample(proc, t, reading + before_adj)
                after = reading + proc.adj
                self._env_sample(proc, t, after)
                proc.value_at_steady = after
        elif steady_active and t >= self._steady_start:
            for pid, before_adj in self._batch_before.items():
                proc = self._procs[pid]
                reading = proc.clock.read(t)
                self._env_sample(proc, t, reading + before_adj)
                self._env_sample(proc, t, reading + proc.adj)
        if self._batch_has_adjustment or self._batch_initial:
            self._note_skew(t, overall=True, steady=steady_active)
        elif completes_steady:
            # A resynchronization with no clock adjustment (e.g. a pulse of a
            # free-running baseline) is not a breakpoint of the overall range,
            # but it *is* the steady interval's start point.
            self._note_skew(t, overall=False, steady=True)
        self._batch_time = None
        self._batch_before = {}
        self._batch_has_adjustment = False
        self._batch_completes_steady = False
        self._batch_initial = False

    # -- event intake ----------------------------------------------------------

    def on_adjustment(self, pid: int, time: float, adjustment: float) -> None:
        """Fold the adjustment breakpoint into the streaming skew evaluation."""
        proc = self._procs[pid]
        if proc.faulty:
            return
        self._advance(time)
        self._open_batch(time)
        if not self._batch_has_adjustment and not self._batch_initial:
            # Left limit at the first adjustment of this instant (all current
            # adjustments are still the pre-batch ones).  The post-hoc pass
            # evaluates it whenever t lies strictly inside the measured range.
            inside_steady = self._steady_start is not None and time > self._steady_start
            self._note_skew(time, overall=time > 0.0, steady=inside_steady)
        self._batch_has_adjustment = True
        if pid not in self._batch_before:
            self._batch_before[pid] = proc.adj
        proc.adj = adjustment

    def on_resync(self, event: ResyncEvent) -> None:
        """Stream the acceptance: rounds, periods, spreads, adjustment extremes."""
        proc = self._procs[event.pid]
        if proc.faulty:
            return
        t = event.time
        self._advance(t)
        round_ = event.round
        proc.resync_count += 1
        if proc.resync_count == 1:
            proc.min_round = round_
            self._unsynced -= 1
            if self._unsynced == 0:
                self._open_batch(t)
                self._batch_completes_steady = True
                self._steady_start = t
        else:
            interval = t - proc.prev_resync_time
            if proc.resync_count >= 3:
                # Interval i sits between resyncs i and i+1; the first
                # interval covers the start-up transient and is skipped.
                if interval < self._period_min:
                    self._period_min = interval
                if interval > self._period_max:
                    self._period_max = interval
                self._period_count += 1
            accepted = self._accepted[proc.pid]
            if round_ > accepted + 1 and proc.first_gap is None:
                proc.first_gap = accepted + 1
            if round_ < proc.min_round:
                proc.min_round = round_
            adjustment = event.logical_after - event.logical_before
            magnitude = abs(adjustment)
            if self._max_adjustment is None or magnitude > self._max_adjustment:
                self._max_adjustment = magnitude
            backward = -min(0.0, adjustment)
            if backward > self._max_backward:
                self._max_backward = backward
        proc.prev_resync_time = t
        self._ledger_accept(proc.pid, round_, t)
        self._record_acceptance(round_, t)

    def _record_acceptance(self, round_: int, t: float) -> None:
        if round_ > self.crash_ceiling:
            return
        entry = self._round_times.get(round_)
        if entry is None:
            self._round_times[round_] = entry = [t, t, 0]
        if t < entry[0]:
            entry[0] = t
        if t > entry[1]:
            entry[1] = t
        entry[2] += 1
        if entry[2] == len(self._honest):
            spread = entry[1] - entry[0]
            if spread > self._acceptance_spread:
                self._acceptance_spread = spread
            del self._round_times[round_]
            # Rounds at or below the globally completed round that are still
            # incomplete were skipped by someone (acceptances are strictly
            # increasing per process) and can never complete: drop them.
            completed = self.min_completed_round()
            for stale in [r for r in self._round_times if r <= completed]:
                del self._round_times[stale]

    def on_crash(self, pid: int, time: float) -> None:
        """An honest crash caps the ledger's ceiling; rounds above it stop being tracked."""
        self._ledger_crash(pid)
        ceiling = self.crash_ceiling
        for stale in [r for r in self._round_times if r > ceiling]:
            del self._round_times[stale]

    def on_message(self, envelope: "Envelope") -> None:
        """Retain every K-th envelope as a :class:`MessageSample` (if sampling)."""
        if self.sample_messages is None:
            return
        if self._messages_seen % self.sample_messages == 0:
            self._message_samples.append(
                MessageSample(
                    msg_id=envelope.msg_id,
                    sender=envelope.sender,
                    dest=envelope.dest,
                    kind=type(envelope.payload).__name__,
                    send_time=envelope.send_time,
                    deliver_time=envelope.deliver_time,
                )
            )
        self._messages_seen += 1

    def ingest_message_samples(self, samples) -> None:
        """Adopt pre-built :class:`MessageSample` rows (vector-kernel replay hook).

        The vectorized kernel (:mod:`repro.sim.vectorized`) computes a run's
        message timeline arithmetically instead of sending one envelope per
        message, so it cannot feed :meth:`on_message` -- instead it selects
        the exact rows the event loop's every-K-th sampling would have kept
        and hands them over here, already ordered.  The rows are appended
        verbatim (they must carry the event loop's ``msg_id`` numbering for
        parity); requires ``sample_messages`` to be enabled and, like every
        intake method, rejects events after :meth:`finalize`.
        """
        if self.sample_messages is None:
            raise RecorderError(
                "ingest_message_samples requires sample_messages to be enabled"
            )
        if self._finalized is not None:
            raise RecorderError(
                "OnlineMetricsRecorder cannot record past finalize(); "
                "use trace_level='full' to resume runs"
            )
        self._message_samples.extend(samples)

    def on_note(self, text: str) -> None:
        """Append the annotation; notes concatenate under the merge algebra."""
        self._notes.append(text)

    # -- finalization -----------------------------------------------------------

    def finalize(self, end_time: float, network_stats: "NetworkStats") -> OnlineMetricsSummary:
        """Close the streams at ``end_time`` and build the immutable summary.

        Idempotent at the same end time; re-finalizing at a different one is
        an error (streaming state cannot be rewound -- use a full trace for
        resumable runs).
        """
        if self._finalized is not None:
            finalized_at, summary = self._finalized
            if end_time == finalized_at:
                return summary
            raise RecorderError(
                "OnlineMetricsRecorder was already finalized at a different end time; "
                "use trace_level='full' for runs resumed with multiple run_until calls"
            )
        self._seal()
        if self._batch_time is not None:
            self._close_batch()
        self._walk(end_time, inclusive=True)

        steady_reached = self._steady_start is not None
        self._note_skew(end_time, overall=True, steady=steady_reached)
        if not steady_reached:
            # Matches metrics.steady_state_start: the steady interval
            # degenerates to the single point t = end_time.
            self._steady_skew = self._skew(end_time)

        slowest_lr = fastest_lr = envelope_a = envelope_b = worst_offset = None
        entries = []
        if steady_reached and end_time > self._steady_start:
            span = end_time - self._steady_start
            slowest_lr = math.inf
            fastest_lr = -math.inf
            envelope_a = 0.0
            envelope_b = 0.0
            for proc in self._honest:
                value = proc.clock.read(end_time) + proc.adj
                self._env_sample(proc, end_time, value)
                rate = (value - proc.value_at_steady) / span
                slowest_lr = min(slowest_lr, rate)
                fastest_lr = max(fastest_lr, rate)
                # The long-run rate is the hull pass's fallback for a process
                # whose samples admit no quarter-span window, exactly like the
                # post-hoc analysis.
                entries.append((tuple(proc.win_t), tuple(proc.win_v), rate))
                if self.rate_low is not None:
                    envelope_a = max(envelope_a, proc.env_drawdown)
                    envelope_b = max(envelope_b, proc.env_rise)
            if self.rate_low is None:
                envelope_a = envelope_b = None
            worst_offset = self._worst_offset

        triples = tuple(
            (proc.min_round, self._accepted[proc.pid], proc.first_gap) if proc.resync_count else None
            for proc in self._honest
        )
        summary = OnlineMetricsSummary(
            end_time=end_time,
            steady_start=self._steady_start if steady_reached else end_time,
            steady_skew=self._steady_skew,
            overall_skew=self._overall_skew,
            period_min=self._period_min,
            period_max=self._period_max,
            period_count=self._period_count,
            acceptance_spread=self._acceptance_spread,
            max_adjustment=self._max_adjustment,
            max_backward_adjustment=self._max_backward,
            completed_round=self.min_completed_round(),
            max_round=max(self._accepted.values(), default=0),
            liveness_triples=triples,
            slowest_long_run_rate=slowest_lr,
            fastest_long_run_rate=fastest_lr,
            slowest_window_rate=None,  # derived by compact()
            fastest_window_rate=None,
            envelope_a=envelope_a,
            envelope_b=envelope_b,
            worst_offset_from_real_time=worst_offset,
            total_messages=network_stats.total_messages,
            message_stats=dict(network_stats.messages_by_type),
            notes=list(self._notes),
            window_samples=tuple(entries),
            message_samples=tuple(self._message_samples) if self.sample_messages is not None else None,
        )
        self._finalized = (end_time, summary)
        return summary

    # -- introspection -----------------------------------------------------------

    def retained_state_size(self) -> int:
        """Number of dynamically retained bookkeeping entries.

        Used by tests and benchmarks to demonstrate that the streaming core
        stays O(n): unlike a full trace, this count does not grow with run
        length.  The window-rate sample buffer is accounted separately
        (:meth:`retained_window_samples`) because it necessarily grows with
        the number of resynchronizations -- though never with the event
        count.
        """
        return (
            len(self._procs)
            + len(self._heap)
            + len(self._batch_before)
            + len(self._round_times)
            + len(self._notes)
        )

    def retained_window_samples(self) -> int:
        """Breakpoint samples retained for the exact window-rate pass.

        Two samples per adjustment plus one per hardware-clock rate change
        inside the steady window (proportional to rounds completed,
        independent of how many messages each round took).
        """
        return sum(len(proc.win_t) for proc in self._procs.values())

    def retained_message_samples(self) -> int:
        """Sampled message summaries retained (0 with ``sample_messages=None``;
        otherwise one per ``sample_messages`` network messages)."""
        return len(self._message_samples)
