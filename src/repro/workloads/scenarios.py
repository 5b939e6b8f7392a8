"""Scenario construction and execution.

A :class:`Scenario` is a complete, declarative description of one simulated
execution: model parameters, which algorithm runs, how the adversary sets
hardware clock rates and message delays, which Byzantine behaviour the faulty
processes follow, whether the system starts synchronized or from scratch, and
for how many rounds to run.  :func:`build_cluster` turns it into a ready
:class:`~repro.sim.engine.Simulation`; :func:`run_scenario` additionally runs
it and returns a :class:`ScenarioResult` with the exact measurements used by
tests, examples and the benchmark harness.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace as dataclasses_replace
from typing import Optional, Sequence

from .. import obs
from ..analysis import metrics
from ..analysis.envelope import AccuracySummary, accuracy_summary
from ..analysis.optimality import (
    ExecutionMeasurements,
    GuaranteeReport,
    period_stats_from_summary,
    verify_measurements,
    verify_summary,
)
from ..baselines import (
    FreeRunningProcess,
    InflatedClockAttacker,
    LamportMelliarSmithProcess,
    LundeliusWelchProcess,
    SyncToMaxProcess,
)
from ..core.auth_sync import AuthSyncProcess
from ..core.bounds import AUTH, ECHO
from ..core.params import SyncParams
from ..core.startup import staggered_boot_times
from ..core.unauth_sync import EchoSyncProcess
from ..crypto.signatures import KeyStore
from ..faults.behaviors import AdversaryContext
from ..faults.strategies import make_faulty_processes
from ..sim.adversary import roles_for
from ..sim.clocks import FixedRateClock, HardwareClock, honest_clock, honest_offsets
from ..sim.engine import Simulation
from ..sim.kernel import (
    KERNELS,
    fallback_note,
    kernel_ineligibility,
    resolve_kernel,
)
from ..sim.vectorized import run_lanes
from ..sim.recorder import (
    OnlineMetricsRecorder,
    OnlineMetricsSummary,
    Recorder,
    merge_summaries,
)
from ..sim.network import (
    DelayPolicy,
    FixedDelay,
    MaxDelay,
    MinDelay,
    TargetedDelay,
    UniformDelay,
)
from ..sim.trace import Trace

#: Algorithms driven through the Srikanth-Toueg guarantee checker.
ST_ALGORITHMS = ("auth", "echo")
#: Baseline algorithms (compared against, no analytic guarantees checked).
BASELINE_ALGORITHMS = ("lundelius_welch", "lamport_melliar_smith", "sync_to_max", "free_running")
ALL_ALGORITHMS = ST_ALGORITHMS + BASELINE_ALGORITHMS

CLOCK_MODES = ("extreme", "random", "nominal")
DELAY_MODES = ("uniform", "max", "min", "midpoint", "targeted")
#: Observation depth: "full" keeps the whole execution trace (exact
#: history-based analysis), "metrics" streams scalar metrics in O(n) memory.
TRACE_LEVELS = ("full", "metrics")


@dataclass
class Scenario:
    """Declarative description of one simulated execution."""

    params: SyncParams
    algorithm: str = "auth"
    name: str = ""
    #: Number of resynchronization rounds every honest process must complete.
    rounds: int = 20
    #: Named adversary strategy (see :mod:`repro.faults.strategies`);
    #: ``None`` means the faulty slots are filled with silent processes.
    attack: Optional[str] = None
    #: How many processes actually behave faultily; defaults to ``params.f``.
    #: Setting this above ``params.f`` is how the resilience-threshold
    #: experiments run the algorithms out of spec.
    actual_faults: Optional[int] = None
    #: Hardware clock assignment: "extreme" (honest clocks alternate between the
    #: fastest and slowest admissible rate), "random" (wandering within the
    #: bound) or "nominal" (all at rate 1).
    clock_mode: str = "extreme"
    #: Delay policy: "uniform", "max", "min", "midpoint" or "targeted"
    #: (fast delivery to one half of the honest processes, slow to the other).
    delay_mode: str = "uniform"
    #: Start from scratch using the start-up protocol (round 0) instead of
    #: assuming initial synchronization.
    use_startup: bool = False
    #: Real-time dispersion of process boot times (only used with start-up).
    boot_spread: float = 0.0
    #: Suppress backward clock corrections (ablation).
    monotonic: bool = False
    #: Number of passive joiners added on top of ``params.n`` processes.
    joiner_count: int = 0
    #: Real time at which the joiners come up.
    join_time: float = 0.0
    #: Real time to keep simulating past target-round completion, at either
    #: trace level.  0 halts on the completing event itself.
    grace: float = 0.0
    #: Opt-in early abort: end a run the moment the target round becomes
    #: unreachable (an honest crash capped the completable rounds below it)
    #: instead of burning the full budget.  Off by default because it changes
    #: the measured end time of infeasible runs.
    abort_unreachable: bool = False
    #: Independent replications of this configuration (seeds ``seed`` ..
    #: ``seed + replications - 1``).  The scenario's result is the exact
    #: merge of the per-replication summaries -- worst-case statistics over
    #: all runs, the per-configuration quantities the paper's claims bound.
    #: Requires ``trace_level="metrics"`` when above 1.
    replications: int = 1
    #: Shard tasks the replications are split into (each shard runs its block
    #: of replications and folds them locally).  ``None`` resolves to one
    #: shard per core (``REPRO_SHARDS`` overrides), capped by
    #: ``replications``; sharding never changes measured values, only where
    #: the replications execute.
    shards: Optional[int] = None
    #: Sampling message trace (metrics level only): retain every K-th network
    #: message as a :class:`~repro.sim.recorder.MessageSample` in
    #: :attr:`ScenarioResult.message_samples`.  Samples concatenate across
    #: replications and shards under the merge algebra, so sharded and
    #: distributed runs ship bounded message-level provenance home.  ``None``
    #: (the default) retains nothing and costs nothing.
    sample_messages: Optional[int] = None
    #: Simulation kernel: ``"event"`` (the pure-Python event loop),
    #: ``"vector"`` (the batched NumPy round evaluator,
    #: :mod:`repro.sim.vectorized`) or ``"auto"`` (vector exactly when the
    #: scenario family is in its proven float-parity regime).  ``None``
    #: defers to the ``REPRO_KERNEL`` environment variable, then ``"auto"``.
    #: A requested-but-ineligible vector run falls back to the event loop
    #: and records the reason via ``on_note``; measured values are
    #: float-identical either way (see ``docs/kernel.md``).
    kernel: Optional[str] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.algorithm not in ALL_ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}; expected one of {ALL_ALGORITHMS}")
        if self.clock_mode not in CLOCK_MODES:
            raise ValueError(f"unknown clock_mode {self.clock_mode!r}; expected one of {CLOCK_MODES}")
        if self.delay_mode not in DELAY_MODES:
            raise ValueError(f"unknown delay_mode {self.delay_mode!r}; expected one of {DELAY_MODES}")
        if self.rounds <= 0:
            raise ValueError("rounds must be positive")
        if self.grace < 0:
            raise ValueError("grace must be non-negative")
        if self.replications < 1:
            raise ValueError("replications must be at least 1")
        if self.shards is not None and self.shards < 1:
            raise ValueError("shards must be at least 1 (or None for auto)")
        if self.sample_messages is not None and self.sample_messages < 1:
            raise ValueError("sample_messages must be at least 1 (or None to disable)")
        if self.kernel is not None and self.kernel not in KERNELS:
            raise ValueError(f"unknown kernel {self.kernel!r}; expected one of {KERNELS} (or None)")
        if self.actual_faults is None:
            self.actual_faults = self.params.f
        if self.actual_faults >= self.params.n:
            raise ValueError("actual_faults must leave at least one honest process")
        if not self.name:
            self.name = f"{self.algorithm}-n{self.params.n}-f{self.actual_faults}-{self.attack or 'benign'}"

    # -- derived layout ------------------------------------------------------------

    @property
    def honest_pids(self) -> list[int]:
        """Honest process ids: the first ``n - actual_faults`` ids."""
        return list(range(self.params.n - self.actual_faults))

    @property
    def faulty_pids(self) -> list[int]:
        """Faulty process ids: the last ``actual_faults`` ids."""
        return list(range(self.params.n - self.actual_faults, self.params.n))

    @property
    def joiner_pids(self) -> list[int]:
        """Ids of the passive joiners (allocated above the base population)."""
        return list(range(self.params.n, self.params.n + self.joiner_count))

    @property
    def st_algorithm(self) -> str:
        """The bounds-module identifier for Srikanth-Toueg scenarios."""
        return AUTH if self.algorithm == "auth" else ECHO

    def horizon(self) -> float:
        """Real-time budget: generous upper bound for completing ``rounds`` rounds.

        Only the liveness cap: a run that completes the target round ends
        there (plus ``grace``), an infeasible one spends this budget.
        """
        per_round = (1.0 + self.params.rho) * self.params.period + 4.0 * self.params.tdel
        startup = self.boot_spread + 10.0 * self.params.tdel + self.params.initial_offset_spread
        return startup + per_round * (self.rounds + 2) + self.join_time


def auto_shard_count() -> int:
    """The shard count ``Scenario.shards=None`` resolves to (before capping).

    ``REPRO_SHARDS`` overrides (a non-positive value falls back to auto);
    otherwise one shard per CPU core.
    """
    raw = os.environ.get("REPRO_SHARDS", "").strip()
    if raw:
        try:
            value = int(raw)
        except ValueError:
            raise ValueError(f"REPRO_SHARDS must be an integer, got {raw!r}") from None
        if value > 0:
            return value
    return os.cpu_count() or 1


def resolve_shards(scenario: Scenario) -> int:
    """The effective shard count for one scenario.

    ``None`` resolves to one shard per core (``REPRO_SHARDS`` overrides);
    the result is always capped by ``replications`` (a shard needs at least
    one replication) and an unreplicated scenario is never sharded.  The
    result cache keys on this resolved value because the stored result's
    provenance (``shard_count``, ``shard_horizons``) depends on it -- the
    measured metrics themselves do not.
    """
    if scenario.replications <= 1:
        return 1
    shards = scenario.shards if scenario.shards is not None else auto_shard_count()
    return max(1, min(shards, scenario.replications))


def plan_shards(scenario: Scenario) -> list[tuple[int, ...]]:
    """Deterministic shard plan: contiguous, balanced blocks of replication indices.

    The plan depends only on ``(replications, resolved shard count)``, so the
    serial reference path and the parallel sharded backend fold exactly the
    same blocks in exactly the same order.
    """
    count = resolve_shards(scenario)
    reps = scenario.replications
    base, extra = divmod(reps, count)
    blocks: list[tuple[int, ...]] = []
    start = 0
    for index in range(count):
        size = base + (1 if index < extra else 0)
        blocks.append(tuple(range(start, start + size)))
        start += size
    return blocks


def replicate(scenario: Scenario, index: int) -> Scenario:
    """Replication ``index`` of ``scenario``: a single-run copy with seed ``seed + index``."""
    if index < 0 or index >= scenario.replications:
        raise ValueError(f"replication index {index} out of range for {scenario.replications} replications")
    if scenario.replications == 1:
        return scenario
    return dataclasses_replace(
        scenario, replications=1, shards=None, seed=scenario.seed + index, name=""
    )


@dataclass
class ClusterHandles:
    """Everything :func:`build_cluster` created, for tests that need the internals."""

    sim: Simulation
    scenario: Scenario
    keystore: Optional[KeyStore]
    context: Optional[AdversaryContext]
    honest: list
    faulty: list
    joiners: list


@dataclass(frozen=True)
class KernelProvenance:
    """Which engine served each lane (replication) of an executed scenario.

    One lane is one single-replication run.  Every lane lands in exactly one
    bucket: served by the vector kernel, dynamically fallen back to the event
    loop (the vector evaluator refused it, reason counted in
    ``fallback_reasons``), or never offered to the vector evaluator at all
    (statically ineligible, or the kernel resolved to ``"event"``).
    """

    #: The resolved kernel selection (``"auto"``/``"event"``/``"vector"``).
    resolved: str
    #: Lanes evaluated by the vector kernel.
    vector_lanes: int = 0
    #: Lanes the vector evaluator refused per-run; they re-ran on the event
    #: loop with the reason noted.
    fallback_lanes: int = 0
    #: Lanes that never reached the vector evaluator (static ineligibility,
    #: or ``resolved == "event"``).
    ineligible_lanes: int = 0
    #: Deduplicated dynamic fallback reasons as ``(reason, lane_count)``
    #: pairs, sorted by reason.
    fallback_reasons: tuple = ()
    #: The static ineligibility reason, or ``None`` (always ``None`` when
    #: the kernel resolved to ``"event"`` -- that is selection, not
    #: eligibility).
    ineligible_reason: Optional[str] = None

    @property
    def total_lanes(self) -> int:
        """All lanes this provenance accounts for."""
        return self.vector_lanes + self.fallback_lanes + self.ineligible_lanes

    def describe(self) -> str:
        """One human-readable provenance line (used by the CLI and reports)."""
        parts = [f"kernel {self.resolved}:"]
        buckets = []
        if self.vector_lanes:
            buckets.append(f"{self.vector_lanes} vector-served")
        if self.fallback_lanes:
            reasons = "; ".join(
                f"{reason} ({count} lanes)" if count > 1 else reason
                for reason, count in self.fallback_reasons
            )
            buckets.append(f"{self.fallback_lanes} fell back ({reasons})")
        if self.ineligible_lanes:
            if self.ineligible_reason is not None:
                buckets.append(
                    f"{self.ineligible_lanes} ineligible ({self.ineligible_reason})"
                )
            else:
                buckets.append(f"{self.ineligible_lanes} event-loop")
        parts.append(", ".join(buckets) if buckets else "no lanes")
        return " ".join(parts)


def merge_kernel_provenance(resolved: str, parts: Sequence["KernelProvenance"]) -> KernelProvenance:
    """Fold per-shard provenance records into one scenario-level record."""
    reasons: dict = {}
    ineligible_reason = None
    for part in parts:
        for reason, count in part.fallback_reasons:
            reasons[reason] = reasons.get(reason, 0) + count
        if ineligible_reason is None:
            ineligible_reason = part.ineligible_reason
    return KernelProvenance(
        resolved=resolved,
        vector_lanes=sum(part.vector_lanes for part in parts),
        fallback_lanes=sum(part.fallback_lanes for part in parts),
        ineligible_lanes=sum(part.ineligible_lanes for part in parts),
        fallback_reasons=tuple(sorted(reasons.items())),
        ineligible_reason=ineligible_reason,
    )


@dataclass
class ScenarioResult:
    """Measurements of one executed scenario.

    ``trace`` is only populated at ``trace_level="full"``; every scalar
    metric -- including the accuracy summary's window-rate extremes -- is
    identical between trace levels (the streaming recorder evaluates the
    same breakpoints the post-hoc analysis walks and runs the same
    window-rate pass over them).
    """

    scenario: Scenario
    trace: Optional[Trace]
    #: Worst-case skew among honest processes after every one of them
    #: resynchronized at least once.
    precision: float
    #: Worst-case skew over the entire run (including the start-up transient).
    precision_overall: float
    period_stats: metrics.PeriodStats
    acceptance_spread: float
    accuracy: Optional[AccuracySummary]
    completed_round: int
    total_messages: int
    messages_per_round: float
    guarantees: Optional[GuaranteeReport]
    trace_level: str = "full"
    #: Real time at which the run actually ended: the adapted horizon when
    #: the target round completed, the static budget otherwise.  For a
    #: replicated scenario this is the latest end time over all replications.
    effective_horizon: Optional[float] = None
    #: Whether the run ended before its static budget (round target reached).
    #: For a replicated scenario: whether every replication stopped early.
    stopped_early: bool = False
    #: Shard tasks the replications actually executed in (1 for plain runs).
    shard_count: int = 1
    #: Per-shard effective horizon (latest end time inside each shard), in
    #: shard order; ``None`` for unreplicated runs.
    shard_horizons: Optional[tuple] = None
    #: Every K-th message's :class:`~repro.sim.recorder.MessageSample` when
    #: the scenario set ``sample_messages=K`` (metrics level only); for a
    #: replicated scenario, the concatenation over all replications in
    #: replication order.  ``None`` when sampling was off.
    message_samples: Optional[tuple] = None
    #: Which engine served each lane (vector-served / fell-back / ineligible
    #: counts plus deduplicated reasons); ``None`` for results predating the
    #: provenance record.
    kernel_provenance: Optional[KernelProvenance] = None

    @property
    def params(self) -> SyncParams:
        """The scenario's model parameters (shorthand for ``scenario.params``)."""
        return self.scenario.params

    @property
    def guarantees_hold(self) -> bool:
        """Whether every checked guarantee held (True when checking was off)."""
        return self.guarantees.all_hold if self.guarantees is not None else True


# -- hardware clock assignment -----------------------------------------------------------


def _honest_clock(scenario: Scenario, index: int, offset: float) -> HardwareClock:
    params = scenario.params
    return honest_clock(
        scenario.clock_mode,
        index,
        offset,
        rho=params.rho,
        seed=scenario.seed,
        period=params.period,
        tdel=params.tdel,
        horizon=scenario.horizon(),
    )


def _delay_policy(scenario: Scenario, fast_group: list[int]) -> DelayPolicy:
    params = scenario.params
    if scenario.delay_mode == "uniform":
        return UniformDelay()
    if scenario.delay_mode == "max":
        return MaxDelay()
    if scenario.delay_mode == "min":
        return MinDelay()
    if scenario.delay_mode == "midpoint":
        return FixedDelay(0.5 * (params.tmin + params.tdel))
    return TargetedDelay(fast_destinations=fast_group)


# -- process construction --------------------------------------------------------------------


def _make_honest_process(scenario: Scenario, pid: int, keystore: Optional[KeyStore], joiner: bool = False):
    params = scenario.params
    common = dict(monotonic=scenario.monotonic, use_startup=scenario.use_startup and not joiner, joiner=joiner)
    if scenario.algorithm == "auth":
        assert keystore is not None
        return AuthSyncProcess(pid, params, keystore, keystore.secret_key(pid), **common)
    if scenario.algorithm == "echo":
        return EchoSyncProcess(pid, params, **common)
    if scenario.algorithm == "lundelius_welch":
        return LundeliusWelchProcess(pid, params)
    if scenario.algorithm == "lamport_melliar_smith":
        return LamportMelliarSmithProcess(pid, params)
    if scenario.algorithm == "sync_to_max":
        return SyncToMaxProcess(pid, params)
    return FreeRunningProcess(pid, params)


def _make_faulty_processes(scenario: Scenario, context: AdversaryContext, keystore: Optional[KeyStore]):
    attack = scenario.attack
    if scenario.algorithm not in ST_ALGORITHMS:
        # Baselines ignore the Srikanth-Toueg messages: their own adversary, or silence.
        if attack == "inflated_clock":
            return [InflatedClockAttacker(pid, scenario.params) for pid in scenario.faulty_pids]
        if any(role != "silent" for role in roles_for(attack, scenario.faulty_pids).values()):
            raise ValueError(f"attack {attack!r} is not applicable to baseline algorithm {scenario.algorithm!r}")
    return make_faulty_processes(attack, context, algorithm=scenario.st_algorithm, keystore=keystore)


def _make_recorder(
    scenario: Scenario,
    trace_level: str,
    mergeable: bool = False,
    sample_messages: Optional[int] = None,
) -> Optional[Recorder]:
    if trace_level not in TRACE_LEVELS:
        raise ValueError(f"unknown trace_level {trace_level!r}; expected one of {TRACE_LEVELS}")
    if trace_level == "full":
        if mergeable:
            raise ValueError("mergeable summaries require trace_level='metrics'")
        if sample_messages is not None:
            raise ValueError("sample_messages requires trace_level='metrics' (full traces keep every message)")
        return None  # the engine's default FullTraceRecorder
    params = scenario.params
    return OnlineMetricsRecorder(
        rate_low=params.min_rate,
        rate_high=params.max_rate,
        mergeable=mergeable,
        sample_messages=sample_messages,
    )


def build_cluster(
    scenario: Scenario,
    trace_level: str = "full",
    mergeable: bool = False,
    sample_messages: Optional[int] = None,
) -> ClusterHandles:
    """Assemble a ready-to-run simulation for ``scenario``.

    ``trace_level`` selects the recorder the engine emits into: ``"full"``
    keeps the complete execution trace, ``"metrics"`` streams scalar metrics
    in O(n) memory (no history retained).  ``mergeable`` (metrics level only)
    makes the finalized summary carry the retained window samples the
    shard-merge algebra folds over.  ``sample_messages=K`` (metrics level
    only) retains every K-th message's
    :class:`~repro.sim.recorder.MessageSample` in the summary -- the
    lightweight message-level provenance distributed runs ship home.
    """
    params = scenario.params
    sim = Simulation(
        tmin=params.tmin,
        tdel=params.tdel,
        seed=scenario.seed,
        recorder=_make_recorder(scenario, trace_level, mergeable=mergeable, sample_messages=sample_messages),
    )

    keystore: Optional[KeyStore] = None
    if scenario.algorithm == "auth":
        keystore = KeyStore.generate(params.n + scenario.joiner_count, seed=scenario.seed + 7)

    honest_pids = scenario.honest_pids
    faulty_pids = scenario.faulty_pids
    context = AdversaryContext.build(
        params=params,
        faulty_pids=faulty_pids,
        honest_pids=honest_pids,
        keystore=keystore,
        seed=scenario.seed,
    )
    sim.network.policy = _delay_policy(scenario, fast_group=context.fast_group)

    offsets = honest_offsets(len(honest_pids), params.initial_offset_spread, scenario.seed)
    if scenario.use_startup:
        boot_times = staggered_boot_times(len(honest_pids), scenario.boot_spread, seed=scenario.seed + 17)
    else:
        boot_times = [0.0] * len(honest_pids)

    honest_processes = []
    for index, pid in enumerate(honest_pids):
        process = _make_honest_process(scenario, pid, keystore)
        clock = _honest_clock(scenario, index, offsets[index])
        sim.add_process(process, clock, faulty=False, boot_time=boot_times[index])
        honest_processes.append(process)

    faulty_processes = _make_faulty_processes(scenario, context, keystore)
    for process in faulty_processes:
        clock = FixedRateClock(rate=1.0, offset=0.0)
        sim.add_process(process, clock, faulty=True)

    joiners = []
    for index, pid in enumerate(scenario.joiner_pids):
        process = _make_honest_process(scenario, pid, keystore, joiner=True)
        clock = _honest_clock(scenario, len(honest_pids) + index, 0.0)
        sim.add_process(process, clock, faulty=False, boot_time=scenario.join_time)
        joiners.append(process)

    return ClusterHandles(
        sim=sim,
        scenario=scenario,
        keystore=keystore,
        context=context,
        honest=honest_processes,
        faulty=faulty_processes,
        joiners=joiners,
    )


def _resolve_check(scenario: Scenario, check_guarantees: Optional[bool]) -> bool:
    st_scenario = scenario.algorithm in ST_ALGORITHMS
    if check_guarantees is None:
        within_spec = scenario.actual_faults <= scenario.params.f
        check_guarantees = st_scenario and within_spec
    return st_scenario and bool(check_guarantees)


def _measure_full(scenario: Scenario, trace: Trace, check: bool, stopped_early: bool = False) -> ScenarioResult:
    steady = metrics.steady_state_start(trace)
    accuracy: Optional[AccuracySummary] = None
    if trace.end_time - steady > scenario.params.period:
        accuracy = accuracy_summary(
            trace,
            rate_low=scenario.params.min_rate,
            rate_high=scenario.params.max_rate,
            t_start=steady,
            t_end=trace.end_time,
        )

    precision = metrics.steady_state_skew(trace)
    period_stats = metrics.period_stats(trace)
    acceptance_spread = metrics.max_acceptance_spread(trace)
    completed_round = trace.min_completed_round()

    guarantees: Optional[GuaranteeReport] = None
    if check:
        # Reuse the measurements computed above instead of re-walking the
        # trace inside verify_guarantees (the long-run rates are independent
        # of the envelope's rate bounds, so the result-level accuracy summary
        # supplies exactly the values the guarantee checks compare).
        adjustments = metrics.adjustment_magnitudes(trace)
        measured = ExecutionMeasurements(
            steady_skew=precision,
            acceptance_spread=acceptance_spread,
            period_stats=period_stats,
            max_adjustment=max(adjustments) if adjustments else None,
            min_completed_round=completed_round,
            liveness_ok=metrics.liveness(trace, scenario.rounds),
            long_run_rates=(
                (accuracy.slowest_long_run_rate, accuracy.fastest_long_run_rate)
                if accuracy is not None
                else None
            ),
        )
        guarantees = verify_measurements(
            measured,
            scenario.params,
            algorithm=scenario.st_algorithm,
            expected_round=scenario.rounds,
        )

    return ScenarioResult(
        scenario=scenario,
        trace=trace,
        precision=precision,
        precision_overall=metrics.max_skew(trace),
        period_stats=period_stats,
        acceptance_spread=acceptance_spread,
        accuracy=accuracy,
        completed_round=completed_round,
        total_messages=trace.total_messages,
        messages_per_round=metrics.messages_per_completed_round(trace),
        guarantees=guarantees,
        trace_level="full",
        effective_horizon=trace.end_time,
        stopped_early=stopped_early,
    )


def _measure_streamed(
    scenario: Scenario, summary: OnlineMetricsSummary, check: bool, stopped_early: bool = False
) -> ScenarioResult:
    guarantees: Optional[GuaranteeReport] = None
    if check:
        guarantees = verify_summary(
            summary,
            scenario.params,
            algorithm=scenario.st_algorithm,
            expected_round=scenario.rounds,
        )

    accuracy: Optional[AccuracySummary] = None
    rates = summary.long_run_rates(scenario.params.period)
    if rates is not None:
        # The recorder retains the steady-window breakpoint samples and runs
        # the same window-rate pass as the post-hoc analysis, so the extremes
        # stream exactly; nan only appears when the recorder was built
        # without window tracking.
        nan = float("nan")
        accuracy = AccuracySummary(
            slowest_long_run_rate=rates[0],
            fastest_long_run_rate=rates[1],
            slowest_window_rate=summary.slowest_window_rate if summary.slowest_window_rate is not None else nan,
            fastest_window_rate=summary.fastest_window_rate if summary.fastest_window_rate is not None else nan,
            envelope_a=summary.envelope_a,
            envelope_b=summary.envelope_b,
            worst_offset_from_real_time=summary.worst_offset_from_real_time,
        )

    return ScenarioResult(
        scenario=scenario,
        trace=None,
        precision=summary.steady_skew,
        precision_overall=summary.overall_skew,
        period_stats=period_stats_from_summary(summary),
        acceptance_spread=summary.acceptance_spread,
        accuracy=accuracy,
        completed_round=summary.completed_round,
        total_messages=summary.total_messages,
        messages_per_round=summary.messages_per_round(),
        guarantees=guarantees,
        trace_level="metrics",
        effective_horizon=summary.end_time,
        stopped_early=stopped_early,
        message_samples=summary.message_samples,
    )


@dataclass(frozen=True)
class ShardOutcome:
    """One shard task's folded observation of its block of replications."""

    shard_index: int
    #: Global replication indices this shard ran, in execution order.
    replication_indices: tuple
    #: Mergeable fold of the per-replication summaries (carries the retained
    #: window samples so later folds stay exact).
    summary: OnlineMetricsSummary
    #: Whether every replication in the block ended before its static budget.
    stopped_early: bool
    #: Per-shard kernel accounting, folded into the scenario-level
    #: :class:`KernelProvenance` by :func:`measure_sharded`.
    vector_lanes: int = 0
    fallback_lanes: int = 0
    ineligible_lanes: int = 0
    #: Deduplicated ``(reason, lane_count)`` pairs, sorted by reason.
    fallback_reasons: tuple = ()
    ineligible_reason: Optional[str] = None


def _account_kernel_lanes(vector: int, fallback: int, ineligible: int, reasons: Sequence[tuple]) -> None:
    """Fold one block's lane accounting into the live ``kernel.*`` telemetry.

    These are the *worker-side* counters: they ride result frames home and
    merge into the parent's registry, so a sweep's ``kernel.vector_lanes``
    counts computed lanes across every process (cache hits excluded -- a
    served entry computes nothing).  The distinct ``provenance.*`` namespace
    the CLI folds a finished result's record into never overlaps with these.
    """
    if not (obs.enabled() or obs.metrics_enabled()):
        return
    obs.inc("kernel.vector_lanes", vector)
    obs.inc("kernel.fallback_lanes", fallback)
    obs.inc("kernel.ineligible_lanes", ineligible)
    if obs.enabled():
        for reason, count in reasons:
            obs.event("kernel.fallback", {"reason": reason, "lanes": count})


def run_shard(scenario: Scenario, shard_index: int, replication_indices: Sequence[int]) -> ShardOutcome:
    """Run one shard's block of replications serially and fold their summaries.

    This is the worker-side unit of the sharded backend (and the building
    block of the serial reference path): each replication runs at metrics
    level under a mergeable recorder, and the block folds through
    :func:`~repro.sim.recorder.merge_summaries` in replication order.

    When the resolved kernel allows it, the whole block is evaluated
    *lane-batched* on the vector kernel first -- all replications stepped in
    lockstep as array lanes (:func:`repro.sim.vectorized.run_lanes`) -- and
    only lanes that individually fell back re-run on the event loop, with
    the reason annotated.  The fold order is replication order either way,
    so lane batching never changes the merged summary.
    """
    with obs.span("scenario.shard") as sp:
        sp.set("shard", shard_index)
        sp.set("replications", len(replication_indices))
        outcome = _run_shard(scenario, shard_index, replication_indices)
        _account_kernel_lanes(
            outcome.vector_lanes,
            outcome.fallback_lanes,
            outcome.ineligible_lanes,
            outcome.fallback_reasons,
        )
        return outcome


def _run_shard(scenario: Scenario, shard_index: int, replication_indices: Sequence[int]) -> ShardOutcome:
    reps = [replicate(scenario, index) for index in replication_indices]
    resolved = resolve_kernel(scenario)
    static_reason: Optional[str] = None
    outcomes: list = [None] * len(reps)
    if reps and resolved != "event":
        static_reason = kernel_ineligibility(reps[0], "metrics")
        if static_reason is None:
            outcomes = run_lanes(reps, mergeable=True)
            # Cache-identity guard: the result cache keys on the *static*
            # resolution, so a lane that dynamically fell back to the event
            # loop must still present the same resolved kernel and the same
            # (absent) static reason -- dynamic fallback never forks cache
            # identity.  Both inputs are pure functions of the scenario, so
            # a violation here means a mid-run mutation or a policy/
            # mechanism split, which must fail loudly rather than poison
            # the cache.
            assert resolve_kernel(scenario) == resolved and (
                kernel_ineligibility(reps[0], "metrics") is None
            ), "dynamic fallback changed the static kernel resolution"

    # Kernel accounting up front, so fallback notes are recorded once per
    # distinct reason (with a lane count) rather than once per lane.
    fallback_counts: dict = {}
    vector_lanes = 0
    for outcome in outcomes:
        if outcome is None:
            continue
        if outcome.fallback is None:
            vector_lanes += 1
        else:
            fallback_counts[outcome.fallback] = fallback_counts.get(outcome.fallback, 0) + 1
    ineligible_lanes = len(reps) - vector_lanes - sum(fallback_counts.values())

    def deduped_note(reason: str, count: int) -> str:
        suffix = f" ({count} lanes)" if count > 1 else ""
        return fallback_note(reason) + suffix

    summaries: list[OnlineMetricsSummary] = []
    stopped = True
    noted: set = set()
    for rep, outcome in zip(reps, outcomes):
        if outcome is not None and outcome.fallback is None:
            summaries.append(outcome.summary)
            stopped = stopped and outcome.stopped_early
            continue
        handles = build_cluster(rep, trace_level="metrics", mergeable=True, sample_messages=rep.sample_messages)
        sim = handles.sim
        if outcome is not None:
            if outcome.fallback not in noted:
                noted.add(outcome.fallback)
                sim.recorder.on_note(
                    deduped_note(outcome.fallback, fallback_counts[outcome.fallback])
                )
        elif resolved == "vector" and static_reason is not None and static_reason not in noted:
            noted.add(static_reason)
            sim.recorder.on_note(deduped_note(static_reason, len(reps)))
        summaries.append(
            sim.run_until_round(
                rep.rounds,
                t_max=rep.horizon(),
                grace=rep.grace,
                abort_unreachable=rep.abort_unreachable,
            )
        )
        stopped = stopped and sim.stopped_early
    return ShardOutcome(
        shard_index=shard_index,
        replication_indices=tuple(replication_indices),
        summary=merge_summaries(summaries),
        stopped_early=stopped,
        vector_lanes=vector_lanes,
        fallback_lanes=sum(fallback_counts.values()),
        ineligible_lanes=ineligible_lanes,
        fallback_reasons=tuple(sorted(fallback_counts.items())),
        ineligible_reason=static_reason if resolved != "event" else None,
    )


def measure_sharded(
    scenario: Scenario, outcomes: Sequence[ShardOutcome], check_guarantees: Optional[bool] = None
) -> ScenarioResult:
    """Fold shard outcomes (in shard order) into the scenario's final result.

    The shard summaries merge through the same exact algebra the shards used
    internally, so any grouping of the same replications -- one shard, one
    per replication, or anything between -- produces float-for-float the
    same measurements; only the provenance (``shard_count``,
    ``shard_horizons``) records how the work was split.
    """
    outcomes = sorted(outcomes, key=lambda outcome: outcome.shard_index)
    merged = merge_summaries([outcome.summary for outcome in outcomes])
    check = _resolve_check(scenario, check_guarantees)
    result = _measure_streamed(
        scenario,
        merged.compact(),  # drop the retained samples: results stay lean
        check,
        stopped_early=all(outcome.stopped_early for outcome in outcomes),
    )
    provenance = merge_kernel_provenance(
        resolve_kernel(scenario),
        [
            KernelProvenance(
                resolved=resolve_kernel(scenario),
                vector_lanes=outcome.vector_lanes,
                fallback_lanes=outcome.fallback_lanes,
                ineligible_lanes=outcome.ineligible_lanes,
                fallback_reasons=outcome.fallback_reasons,
                ineligible_reason=outcome.ineligible_reason,
            )
            for outcome in outcomes
        ],
    )
    return dataclasses_replace(
        result,
        shard_count=len(outcomes),
        shard_horizons=tuple(outcome.summary.end_time for outcome in outcomes),
        kernel_provenance=provenance,
    )


def run_scenario(
    scenario: Scenario,
    check_guarantees: Optional[bool] = None,
    trace_level: str = "full",
) -> ScenarioResult:
    """Build, run and measure ``scenario``.

    ``check_guarantees`` controls whether the Srikanth-Toueg analytic bounds
    are evaluated against the execution; by default they are evaluated exactly
    when the scenario runs an ST algorithm within its resilience bound under a
    tolerated attack.  ``trace_level="metrics"`` runs the whole pipeline
    without constructing a trace: the engine streams the scalar measurements
    (identical values, O(n) memory) and ``result.trace`` is ``None``.

    At either trace level the run halts the instant the target round
    completes (plus ``scenario.grace``); :attr:`Scenario.horizon` caps runs
    that never complete it (``scenario.abort_unreachable`` opts into ending
    provably infeasible runs at the fatal crash instead).

    A replicated scenario (``replications > 1``, metrics level only) runs
    every replication here, in process, folded through the exact shard-merge
    algebra along the resolved shard plan -- the serial reference the
    parallel sharded backend (:mod:`repro.runner.sharded`) is
    float-for-float identical to.

    The resolved kernel (:func:`repro.sim.kernel.resolve_kernel`) decides
    which engine steps each run: eligible metrics-level runs under
    ``"auto"``/``"vector"`` are evaluated by the batched NumPy kernel
    (float-identical by contract), everything else -- and every run the
    vector evaluator refuses -- by the event loop, with the fallback reason
    recorded via ``on_note`` when the vector kernel was in play.
    """
    return next(run_scenarios([(scenario, check_guarantees, trace_level)]))


def run_scenarios(cells):
    """Run ``(scenario, check_guarantees, trace_level)`` cells; yield their results in order.

    The plural of :func:`run_scenario`, and what a runner chunk calls.  Every
    statically eligible, single-replication, metrics-level cell rides one
    :func:`~repro.sim.vectorized.run_lanes` call, so a chunk's same-family
    cells share one lockstep block (lanes are independent: a cell's floats
    are the ones it has alone).  Everything else -- full traces,
    ``kernel="event"``, ineligible or replicated cells, and a lane its block
    refused -- runs alone on the per-cell path when its turn comes, so a
    consumer that drops what it is handed never holds a chunk of traces.
    """
    cells = list(cells)
    block = [
        i for i, (scenario, _check, level) in enumerate(cells)
        if scenario.replications <= 1 and resolve_kernel(scenario) != "event"
        and kernel_ineligibility(scenario, level) is None
    ]
    served: dict = {}  # cell index -> result of a lane the block served
    refused: dict = {}  # cell index -> why its lane fell back
    if block:
        with obs.span("scenario.run") as sp:
            sp.set("lanes", len(block))
            for i, outcome in zip(block, run_lanes([cells[i][0] for i in block])):
                scenario, check, _level = cells[i]
                if outcome.fallback is not None:
                    refused[i] = outcome.fallback
                    continue
                result = _measure_streamed(
                    scenario, outcome.summary, _resolve_check(scenario, check),
                    stopped_early=outcome.stopped_early,
                )
                served[i] = dataclasses_replace(
                    result, kernel_provenance=KernelProvenance(resolved=resolve_kernel(scenario), vector_lanes=1)
                )
            _account_kernel_lanes(len(served), 0, 0, ())
    for i, (scenario, check, level) in enumerate(cells):
        result = served.pop(i, None)
        yield result if result is not None else _run_alone(scenario, check, level, refused.get(i))


def _run_alone(
    scenario: Scenario, check_guarantees: Optional[bool], trace_level: str, fallback_reason: Optional[str]
) -> ScenarioResult:
    """One cell on the per-cell path; ``fallback_reason`` is its block's refusal, if it rode in one."""
    with obs.span("scenario.run") as sp:
        sp.set("algorithm", scenario.algorithm)
        sp.set("n", scenario.params.n)
        sp.set("trace_level", trace_level)
        result = _run_scenario(scenario, check_guarantees, trace_level, fallback_reason, sp)
        provenance = result.kernel_provenance
        if scenario.replications <= 1 and provenance is not None:
            # Replicated scenarios already accounted per shard inside
            # run_shard; counting the merged provenance again would double.
            _account_kernel_lanes(
                provenance.vector_lanes,
                provenance.fallback_lanes,
                provenance.ineligible_lanes,
                provenance.fallback_reasons,
            )
        return result


def _run_scenario(
    scenario: Scenario,
    check_guarantees: Optional[bool],
    trace_level: str,
    fallback_reason: Optional[str],
    sp,
) -> ScenarioResult:
    if scenario.replications > 1:
        if trace_level != "metrics":
            raise ValueError(
                f"replications require trace_level='metrics' (full traces do not merge); "
                f"got {trace_level!r} with replications={scenario.replications}"
            )
        outcomes = [
            run_shard(scenario, shard_index, block)
            for shard_index, block in enumerate(plan_shards(scenario))
        ]
        return measure_sharded(scenario, outcomes, check_guarantees)

    check = _resolve_check(scenario, check_guarantees)
    resolved = resolve_kernel(scenario)
    provenance = KernelProvenance(resolved=resolved, ineligible_lanes=1)
    if fallback_reason is not None:
        provenance = KernelProvenance(
            resolved=resolved, fallback_lanes=1, fallback_reasons=((fallback_reason, 1),)
        )
    elif resolved != "event":
        reason = kernel_ineligibility(scenario, trace_level)
        provenance = KernelProvenance(
            resolved=resolved, ineligible_lanes=1, ineligible_reason=reason
        )
        if resolved == "vector":
            # An explicit vector request never errors: run on the event
            # loop (float-identical by contract) and annotate why.
            fallback_reason = reason

    handles = build_cluster(scenario, trace_level=trace_level, sample_messages=scenario.sample_messages)
    sim = handles.sim
    if fallback_reason is not None:
        sim.recorder.on_note(fallback_note(fallback_reason))
    horizon = scenario.horizon()
    observed = sim.run_until_round(
        scenario.rounds,
        t_max=horizon,
        grace=scenario.grace,
        abort_unreachable=scenario.abort_unreachable,
    )
    # The pair kernel.replay reports for the mirror.
    sp.set("events", sim.events_fired)
    sp.set("pruned", sim.network.pruned)

    if trace_level == "metrics":
        result = _measure_streamed(scenario, observed, check, stopped_early=sim.stopped_early)
    else:
        result = _measure_full(scenario, observed, check, stopped_early=sim.stopped_early)
    return dataclasses_replace(result, kernel_provenance=provenance)
