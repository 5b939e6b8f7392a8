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
from typing import NamedTuple, Optional, Sequence

from .. import obs
from ..analysis import metrics
from ..analysis.envelope import AccuracySummary, accuracy_summary
from ..analysis.optimality import (
    GuaranteeReport,
    measure_trace,
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

    @property
    def noted_reason(self) -> Optional[str]:
        """The reason a lane with this record notes when the event loop runs it, or ``None``.

        A per-run refusal is always noted; a static reason only when the
        vector kernel was requested explicitly (``"auto"`` runs ineligible
        lanes on the event loop and says nothing).
        """
        if self.fallback_reasons:
            return self.fallback_reasons[0][0]
        return self.ineligible_reason if self.resolved == "vector" else None

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


def classify_lane(scenario: Scenario, trace_level: str) -> KernelProvenance:
    """The static verdict on one lane, as the provenance record it starts with.

    A lane -- one single run, a grid cell or one replication of a cell alike
    -- is offered to the vector kernel exactly when its kernel does not
    resolve to ``"event"`` and
    :func:`~repro.sim.kernel.kernel_ineligibility` names no reason; its
    record then counts it as vector-served (the evaluator may still refuse it
    per run, which moves it to the fallback bucket).  Any other lane counts
    as ineligible, with the static reason -- ``None`` under ``"event"``,
    which is selection, not eligibility.  This is the one place the run path
    asks the question, and what ``repro kernel`` prints.
    """
    resolved = resolve_kernel(scenario)
    reason = None if resolved == "event" else kernel_ineligibility(scenario, trace_level)
    offered = resolved != "event" and reason is None
    return KernelProvenance(
        resolved=resolved,
        vector_lanes=int(offered),
        ineligible_lanes=int(not offered),
        ineligible_reason=reason,
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


def _make_recorder(scenario: Scenario, trace_level: str, sample_messages: Optional[int]) -> Optional[Recorder]:
    if trace_level not in TRACE_LEVELS:
        raise ValueError(f"unknown trace_level {trace_level!r}; expected one of {TRACE_LEVELS}")
    if trace_level == "full":
        if sample_messages is not None:
            raise ValueError("sample_messages requires trace_level='metrics' (full traces keep every message)")
        return None  # the engine's default FullTraceRecorder
    params = scenario.params
    return OnlineMetricsRecorder(
        rate_low=params.min_rate,
        rate_high=params.max_rate,
        sample_messages=sample_messages,
    )


def build_cluster(
    scenario: Scenario,
    trace_level: str = "full",
    mergeable: bool = True,
    sample_messages: Optional[int] = None,
) -> ClusterHandles:
    """Assemble a ready-to-run simulation for ``scenario``.

    ``trace_level`` selects the recorder the engine emits into: ``"full"``
    keeps the complete execution trace, ``"metrics"`` streams scalar metrics
    in O(n) memory (no history retained).  ``sample_messages=K`` (metrics
    level only) retains every K-th message's
    :class:`~repro.sim.recorder.MessageSample` in the summary -- the
    lightweight message-level provenance distributed runs ship home.

    ``mergeable`` selects nothing: every metrics-level summary carries the
    window samples the merge algebra folds over.  The keyword is accepted
    (``True`` only) because ``perfbench/layers.py`` passes it and only a
    benchmark PR may edit that file.
    """
    if not mergeable:
        raise ValueError("every metrics summary carries its window samples; mergeable=False no longer exists")
    params = scenario.params
    sim = Simulation(
        tmin=params.tmin,
        tdel=params.tdel,
        seed=scenario.seed,
        recorder=_make_recorder(scenario, trace_level, sample_messages),
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


def resolve_check_guarantees(scenario: Scenario, check_guarantees: Optional[bool]) -> bool:
    """The effective guarantee-checking flag for one scenario.

    Guarantees are verified exactly when the scenario runs a Srikanth-Toueg
    algorithm, and (absent an explicit flag) only within its resilience
    bound.  The resolved flag is what the result cache keys on, so ``None``
    and its resolved value share one cache entry.
    """
    st_scenario = scenario.algorithm in ST_ALGORITHMS
    if check_guarantees is None:
        check_guarantees = scenario.actual_faults <= scenario.params.f
    return st_scenario and bool(check_guarantees)


def _measure_full(scenario: Scenario, trace: Trace, check: bool, stopped_early: bool = False) -> ScenarioResult:
    params = scenario.params
    measured = measure_trace(trace, params, expected_round=scenario.rounds)
    accuracy: Optional[AccuracySummary] = None
    if measured.long_run_rates is not None:
        accuracy = accuracy_summary(
            trace,
            rate_low=params.min_rate,
            rate_high=params.max_rate,
            t_start=metrics.steady_state_start(trace),
            t_end=trace.end_time,
        )
    guarantees: Optional[GuaranteeReport] = None
    if check:
        guarantees = verify_measurements(
            measured, params, algorithm=scenario.st_algorithm, expected_round=scenario.rounds
        )

    return ScenarioResult(
        scenario=scenario,
        trace=trace,
        precision=measured.steady_skew,
        precision_overall=metrics.max_skew(trace),
        period_stats=measured.period_stats,
        acceptance_spread=measured.acceptance_spread,
        accuracy=accuracy,
        completed_round=measured.min_completed_round,
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
    """Measure a result from its summary; compacting it here derives the window-rate extremes once."""
    summary = summary.compact()
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
        accuracy = AccuracySummary(
            slowest_long_run_rate=rates[0],
            fastest_long_run_rate=rates[1],
            slowest_window_rate=summary.slowest_window_rate,
            fastest_window_rate=summary.fastest_window_rate,
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


class ShardOutcome(NamedTuple):
    """One shard task's folded observation of its block of replications.

    A tuple because it is what a shard task ships home: it pickles without
    its field names.
    """

    shard_index: int
    #: Global replication indices this shard ran, in execution order.
    replication_indices: tuple
    #: Fold of the per-replication summaries (carries the retained window
    #: samples so later folds stay exact).
    summary: OnlineMetricsSummary
    #: Whether every replication in the block ended before its static budget.
    stopped_early: bool
    #: Which engine served each of the shard's lanes; :func:`measure_sharded`
    #: folds these into the scenario-level record.
    provenance: KernelProvenance


def _account_kernel_lanes(provenance: KernelProvenance) -> None:
    """Fold a computed record into the live ``kernel.*`` telemetry.

    These are the *worker-side* counters: they ride result frames home and
    merge into the parent's registry, so a sweep's ``kernel.vector_lanes``
    counts computed lanes across every process (cache hits excluded -- a
    served entry computes nothing).  The distinct ``provenance.*`` namespace
    the CLI folds a finished result's record into never overlaps with these.
    """
    if obs.metrics_enabled():
        obs.registry().absorb_kernel_provenance(provenance)
    if obs.enabled():
        for reason, count in provenance.fallback_reasons:
            obs.event("kernel.fallback", {"reason": reason, "lanes": count})


def _offer_lanes(scenarios: Sequence[Scenario], records: list) -> list:
    """Offer the lanes classified vector-served to the kernel, as one block.

    The one :func:`~repro.sim.vectorized.run_lanes` call behind cells and
    replications alike.  Returns each lane's
    :class:`~repro.sim.vectorized.LaneOutcome` (``None`` for a lane never
    offered) and moves a refused lane's entry in ``records`` to the fallback
    bucket, so afterwards ``record.vector_lanes`` says whether the outcome
    holds the lane's summary or the event loop still has to run it.
    """
    outcomes: list = [None] * len(records)
    offered = [i for i, record in enumerate(records) if record.vector_lanes]
    if not offered:
        return outcomes
    for i, outcome in zip(offered, run_lanes([scenarios[i] for i in offered])):
        outcomes[i] = outcome
        if outcome.fallback is not None:
            # Cache-identity guard: the result cache keys on the *static*
            # resolution, so a lane that dynamically fell back must still
            # present the same resolved kernel and the same (absent) static
            # reason -- dynamic fallback never forks cache identity.  Both
            # are pure functions of the scenario, so a violation means a
            # mid-run mutation or a policy/mechanism split, which must fail
            # loudly rather than poison the cache.
            assert classify_lane(scenarios[i], "metrics") == records[i], (
                "dynamic fallback changed the static kernel resolution"
            )
            records[i] = dataclasses_replace(
                records[i], vector_lanes=0, fallback_lanes=1, fallback_reasons=((outcome.fallback, 1),)
            )
    return outcomes


def _run_on_event_loop(scenario: Scenario, trace_level: str, note: Optional[str]):
    """Run one lane on the event loop; return what it observed and the finished simulation.

    ``note`` is the caller's fallback annotation (a shard words it for all
    its lanes with one reason, a cell for itself); this only records it.
    """
    sim = build_cluster(scenario, trace_level=trace_level, sample_messages=scenario.sample_messages).sim
    if note is not None:
        sim.recorder.on_note(note)
    observed = sim.run_until_round(
        scenario.rounds,
        t_max=scenario.horizon(),
        grace=scenario.grace,
        abort_unreachable=scenario.abort_unreachable,
    )
    return observed, sim


def run_shard(scenario: Scenario, shard_index: int, replication_indices: Sequence[int]) -> ShardOutcome:
    """Run one shard's block of replications and fold their summaries.

    This is the worker-side unit of the sharded backend (and the building
    block of the serial reference path): each replication is a lane at
    metrics level.  The lanes the classifier allows are evaluated together
    on the vector kernel (:func:`repro.sim.vectorized.run_lanes`); every
    other lane -- and every lane the evaluator refused -- runs on the event
    loop, the first lane
    with each distinct reason noting it with the lane count.  The block
    folds through :func:`~repro.sim.recorder.merge_summaries` in replication
    order either way, so lane batching never changes the merged summary.
    """
    with obs.span("scenario.shard") as sp:
        sp.set("shard", shard_index)
        sp.set("replications", len(replication_indices))
        reps = [replicate(scenario, index) for index in replication_indices]
        records = [classify_lane(rep, "metrics") for rep in reps]
        outcomes = _offer_lanes(reps, records)
        provenance = merge_kernel_provenance(resolve_kernel(scenario), records)
        unnoted = dict(provenance.fallback_reasons)
        unnoted[provenance.ineligible_reason] = provenance.ineligible_lanes
        summaries: list[OnlineMetricsSummary] = []
        stopped = True
        for rep, record, outcome in zip(reps, records, outcomes):
            if record.vector_lanes:
                summaries.append(outcome.summary)  # a served lane always stopped early
                continue
            reason = record.noted_reason
            note = None
            if reason is not None and reason in unnoted:
                count = unnoted.pop(reason)
                note = fallback_note(reason) + (f" ({count} lanes)" if count > 1 else "")
            summary, sim = _run_on_event_loop(rep, "metrics", note)
            summaries.append(summary)
            stopped = stopped and sim.stopped_early
        _account_kernel_lanes(provenance)
        return ShardOutcome(
            shard_index=shard_index,
            replication_indices=tuple(replication_indices),
            summary=merge_summaries(summaries),
            stopped_early=stopped,
            provenance=provenance,
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
    result = _measure_streamed(
        scenario,
        merge_summaries([outcome.summary for outcome in outcomes]),
        resolve_check_guarantees(scenario, check_guarantees),
        stopped_early=all(outcome.stopped_early for outcome in outcomes),
    )
    return dataclasses_replace(
        result,
        shard_count=len(outcomes),
        shard_horizons=tuple(outcome.summary.end_time for outcome in outcomes),
        kernel_provenance=merge_kernel_provenance(
            resolve_kernel(scenario), [outcome.provenance for outcome in outcomes]
        ),
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
    single-replication cell is a lane: the ones :func:`classify_lane` allows
    ride one :func:`~repro.sim.vectorized.run_lanes` call, so a chunk's
    same-family cells share one lockstep block (lanes are independent: a
    cell's floats are the ones it has alone).  Everything else -- full
    traces, ``kernel="event"``, ineligible cells, a lane its block refused,
    and replicated cells (whose shards walk their own lanes) -- runs alone
    when its turn comes, so a consumer that drops what it is handed never
    holds a chunk of traces.
    """
    cells = list(cells)
    lanes = [i for i, cell in enumerate(cells) if cell[0].replications <= 1]
    records = [classify_lane(cells[i][0], cells[i][2]) for i in lanes]
    served: dict = {}  # cell index -> result of a lane the block served
    offered = sum(record.vector_lanes for record in records)
    if offered:
        with obs.span("scenario.run") as sp:
            sp.set("lanes", offered)
            outcomes = _offer_lanes([cells[i][0] for i in lanes], records)
            for i, record, outcome in zip(lanes, records, outcomes):
                if record.vector_lanes:
                    served[i] = _finish_lane(cells[i], record, outcome.summary, stopped_early=True)
    verdicts = dict(zip(lanes, records))
    for i, cell in enumerate(cells):
        result = served.pop(i, None)
        yield result if result is not None else _run_alone(cell, verdicts.get(i))


def _finish_lane(cell, record: KernelProvenance, observed, stopped_early: bool) -> ScenarioResult:
    """Measure one single-run cell from what its lane observed, under its (accounted) record."""
    scenario, check_guarantees, trace_level = cell
    measure = _measure_streamed if trace_level == "metrics" else _measure_full
    result = measure(
        scenario, observed, resolve_check_guarantees(scenario, check_guarantees), stopped_early=stopped_early
    )
    _account_kernel_lanes(record)
    return dataclasses_replace(result, kernel_provenance=record)


def _run_alone(cell, record: Optional[KernelProvenance]) -> ScenarioResult:
    """One cell outside a block: its shards if replicated (no ``record``), else its lane on the event loop."""
    scenario, check_guarantees, trace_level = cell
    with obs.span("scenario.run") as sp:
        sp.set("algorithm", scenario.algorithm)
        sp.set("n", scenario.params.n)
        sp.set("trace_level", trace_level)
        if record is None:
            if trace_level != "metrics":
                raise ValueError(
                    f"replications require trace_level='metrics' (full traces do not merge); "
                    f"got {trace_level!r} with replications={scenario.replications}"
                )
            # Each shard accounts its own lanes.
            outcomes = [
                run_shard(scenario, shard_index, block)
                for shard_index, block in enumerate(plan_shards(scenario))
            ]
            return measure_sharded(scenario, outcomes, check_guarantees)
        reason = record.noted_reason
        observed, sim = _run_on_event_loop(
            scenario, trace_level, fallback_note(reason) if reason is not None else None
        )
        # The pair kernel.replay reports for the mirror.
        sp.set("events", sim.events_fired)
        sp.set("pruned", sim.network.pruned)
        return _finish_lane(cell, record, observed, sim.stopped_early)
