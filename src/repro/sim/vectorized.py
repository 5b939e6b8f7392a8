"""Batched (vectorized) evaluation of Srikanth-Toueg scenarios.

This is the *mechanism* half of the simulation kernel split described in
``docs/kernel.md``; the policy half (selection and static eligibility) is
:mod:`repro.sim.kernel`.  Two engines live here, sharing one finalization
seam (:func:`_finalize_lane`: batch-level statistics, index-stepped message
sampling, recorder replay):

* the **lockstep array path** (phases 1/2 below) serves the authenticated
  algorithm under deterministic attacks and deterministic non-zero delay
  modes -- including drifting (``random``-mode) clocks, whose piecewise
  rate trajectories are reconstructed up front and inverted by a
  vectorized segment walk (:class:`_DriftTables`) -- all lanes of a
  replication block as NumPy array rows;
* the **exact-replay path** (:class:`_ExactReplay`) serves the echo
  algorithm, the ``uniform`` and ``min`` delay modes, and every randomized
  adversary (``forge_flood`` plus the ``random_*`` strategies): a lean
  per-lane discrete replay that mirrors the event queue's ``(time, seq)``
  ordering by construction -- sequence numbers are allocated in the event
  loop's exact push order (which is what resolves ``min``-mode zero-delay
  cascades exactly), the network RNG (``random.Random(seed + 1)``) is
  consumed in the exact global send order, and each randomized adversary's
  ``random.Random(seed + pid)`` stream is replayed draw for draw by calling
  the role's own send policy (:mod:`repro.sim.adversary`; see
  :meth:`_ExactReplay._broadcast`).  Being
  order-exact by construction, it needs none of the tie-breaking guards of
  the array path; its speed comes from eliminating the event loop's
  per-message constants (envelope/event allocation, handler dispatch,
  signature verification, per-message recorder calls) rather than from
  arrays.

The lockstep array path evaluates a whole run round by round:

1. **Phase 1 (arrays).**  Per round, every actor's timer instant, every
   signature's arrival time and every acceptance instant are computed as
   NumPy array operations, using exactly the float expressions the event
   loop's objects evaluate (``FixedRateClock.read``/``invert``,
   ``LogicalClock.set_to``, ``Network.send`` clamping), so results agree
   bit for bit.  Announce decisions couple processes at shared instants;
   they are resolved by a Kleene fixpoint whose convergence to the event
   loop's unique execution is argued in ``docs/kernel.md``.  Executions
   that leave the proven regime (out-of-order rounds, adversary sends
   racing a timer's own arming instant, non-convergence) raise
   :class:`LaneFallback` instead of guessing.
2. **Phase 2 (timeline).**  Message *batches* (one per broadcast, not one
   per message) are laid out in the event loop's exact global order; tied
   instants that the array pass cannot order -- several acceptances at one
   instant, and always the final instant, where the run is cut mid-instant
   -- are resolved by a small exact *walk* that replays the event queue's
   insertion-order tie-breaking for just that instant.
3. **Replay.**  The per-acceptance adjustments are fed, in order, into a
   real :class:`~repro.sim.recorder.OnlineMetricsRecorder` (the same class
   the event loop uses), message statistics are computed arithmetically
   from the batch layout, and sampled messages are selected by index and
   handed over via
   :meth:`~repro.sim.recorder.OnlineMetricsRecorder.ingest_message_samples`.
   Everything downstream of the recorder seam is therefore shared code.

Lanes: several single-replication scenarios that differ only in seed (the
shape :func:`~repro.workloads.scenarios.replicate` produces) are evaluated
in lockstep -- the static layout (roles, destination sets, delay matrix) is
built once per family and kept (:func:`_layout_for`), and every phase-1
array, the fixpoint's included, carries a leading lane axis, so a block
costs one set of array calls per round whatever its size.  A lane that
falls back never touches a recorder, so the caller can re-run exactly the
failed lanes on the event loop.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from heapq import heappop, heappush
from operator import attrgetter
from random import Random
from typing import Iterator, NamedTuple, Optional

from .. import obs
from .adversary import (
    ALL,
    CRASH_PERIODS,
    EAGER_FACTOR,
    EAGER_MAX_ROUND,
    FAST,
    FLOOD_INTERVAL,
    FLOOD_MAX_ROUND,
    ROLES,
    SLOW,
    TRACKER_LOOKAHEAD,
    flood_draws,
    roles_for,
    split_groups,
)
from .clocks import FixedRateClock, honest_clock, honest_offsets, honest_rate
from .kernel import numpy_or_none
from .network import NetworkStats
from .recorder import MessageSample, OnlineMetricsRecorder, OnlineMetricsSummary
from .trace import ResyncEvent

_SIG = "SignedRound"
_BUNDLE = "SignatureBundle"
_INIT = "InitMessage"
_ECHO = "EchoMessage"
_GARBAGE = "GarbageMessage"


class LaneFallback(Exception):
    """One lane left the regime the vector derivation covers; use the event loop."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


@dataclass
class LaneOutcome:
    """Result of evaluating one lane (one single-replication scenario).

    A served lane always stopped early: it ends on the acceptance that
    completes its target round.
    """

    #: The finalized summary; ``None`` when the lane fell back.
    summary: Optional[OnlineMetricsSummary] = None
    #: Why the lane must run on the event loop instead, or ``None``.
    fallback: Optional[str] = None


class _Batch:
    """One multicast: a sender emitting one payload to an ordered dest list.

    ``delays`` is a per-destination sequence, or -- for a broadcast no
    receiver acts on, under uniform delays -- the integer of
    :func:`_unread_delay`, decoded only where a message sample lands.
    """

    __slots__ = ("time", "sender", "kind", "round", "dests", "delays", "seq")

    def __init__(self, time, sender, kind, round_, dests, delays, seq):
        self.time = float(time)
        self.sender = sender
        self.kind = kind
        self.round = round_
        self.dests = dests
        self.delays = delays
        self.seq = seq


#: Sort key of the event loop's global send order.
_send_order = attrgetter("time", "seq")


class _Round(NamedTuple):
    """Per-round phase-1 output for one lane, as plain Python values.

    The per-actor fields are ``.tolist()`` rows of the block arrays, so
    phase 2 never touches a NumPy scalar; ``arr`` stays the lane's ``(S, A)``
    arrival array for the walk's one below-``tau`` count.
    """

    k: int
    tgt: float
    T: list
    Acc: list
    before: list
    adj_after: list
    ann: list
    valid: list
    active: list
    arr: object


#: Scripted (non-participant) roles the engines mirror: silent processes only
#: occupy network slots, eager ones inject early support on a fixed schedule,
#: flooding ones tick :func:`~repro.sim.adversary.flood_draws`.
_SCRIPTED_ROLES = frozenset(["silent", "eager", "forge_flood"])


class _Layout:
    """Seed-independent structure shared by every lane of a scenario family."""

    def __init__(self, scenario, np):
        self.np = np
        params = scenario.params
        self.params = params
        self.n = params.n
        self.f = params.f
        self.P = float(params.period)
        self.alpha = params.alpha_value
        self.tmin = float(params.tmin)
        self.tdel = float(params.tdel)
        self.delay_mode = scenario.delay_mode
        self.clock_mode = scenario.clock_mode
        self.algorithm = scenario.algorithm
        self.h = params.n - scenario.actual_faults
        self.honest_pids = list(range(self.h))
        faulty_pids = list(range(self.h, self.n))
        roles = roles_for(scenario.attack, faulty_pids)
        entries = {pid: ROLES[role] for pid, role in roles.items()}
        for role in roles.values():
            if not ROLES[role].participant and role not in _SCRIPTED_ROLES:
                raise LaneFallback(
                    f"attack {scenario.attack!r} has no vectorized role assignment"
                )
        self.fast_group, self.slow_group = split_groups(self.honest_pids)
        self.fast_set = frozenset(self.fast_group)
        # Actors drive timers/acceptances: honest plus the faulty participants.
        self.actor_pids = self.honest_pids + [
            pid for pid in faulty_pids if entries[pid].participant
        ]
        self.A = len(self.actor_pids)
        self.actor_col = {pid: i for i, pid in enumerate(self.actor_pids)}
        self.eager_pids = [pid for pid in faulty_pids if roles[pid] == "eager"]
        self.E = len(self.eager_pids)
        self.S = self.A + self.E
        self.flood_pids = [pid for pid in faulty_pids if roles[pid] == "forge_flood"]
        self.random_pids = [pid for pid in faulty_pids if entries[pid].draws]
        #: Policies the replay asks once per broadcast (``pid -> policy``);
        #: a static policy is asked once, below, and becomes the sender's table.
        self.policies = {
            pid: entry.policy for pid, entry in entries.items()
            if entry.policy is not None and not entry.static
        }
        # The lockstep array path (phases 1/2) covers exactly the regime it
        # was proven in; everything else eligible goes through _ExactReplay.
        self.lockstep = (
            self.algorithm == "auth"
            and self.delay_mode not in ("uniform", "min")
            and not self.flood_pids
            and not self.policies
        )
        self.crash_pids = frozenset(pid for pid in faulty_pids if entries[pid].crashes)
        self.crash_time = CRASH_PERIODS * params.period if self.crash_pids else None
        self.is_crash = np.array(
            [pid in self.crash_pids for pid in self.actor_pids], dtype=bool
        )
        # Honest clocks of the fixed-rate modes; faulty ones are
        # FixedRateClock(1.0, 0.0).  Drifting lanes read _DriftTables instead.
        self.honest_rates = [
            honest_rate(self.clock_mode, i, params.rho) for i in range(self.h)
        ]
        self.rates = np.array(
            self.honest_rates + [1.0] * (self.A - self.h), dtype=float
        )
        # Every sender's (dests, delays) in the event loop's send order: a
        # plain broadcast (ascending pids minus self) unless the role's
        # static policy plans otherwise.
        self.dests = {}
        self.delays = {}
        for pid in self.actor_pids + self.eager_pids + self.flood_pids:
            entry = entries.get(pid)
            plan = (ALL, None)
            if entry is not None and entry.static:
                plan = entry.policy(None, self.tmin, self.tdel, self._peers(pid), None)
            self.dests[pid], self.delays[pid] = self.resolve(pid, *plan)
        #: ``pid -> {group: (dests, delays)}`` for the per-broadcast policies.
        self.plans = {
            pid: {group: self.resolve(pid, group, None) for group in (ALL, FAST, SLOW)}
            for pid in self.policies
        }
        if not self.lockstep:
            self.D = None
            return
        # Arrival structure over (sender row, actor column): the clamped
        # (finite) delay where the sender reaches the actor, inf where it
        # does not -- in particular on the diagonal, no sender being its own
        # destination -- so ``send + D`` needs no separate reach mask.
        D = np.full((self.S, self.A), np.inf)
        sender_order = self.actor_pids + self.eager_pids
        for s, pid in enumerate(sender_order):
            for p, d in enumerate(self.dests[pid]):
                col = self.actor_col.get(d)
                if col is not None:
                    D[s, col] = self.delays[pid][p]
        self.D = D
        # Lets the exact walk find a batch's deliveries landing on an instant
        # per distinct delay value instead of per destination.
        self.delay_classes = {
            pid: _delay_classes(self.dests[pid], self.delays[pid], self.actor_col)
            for pid in sender_order
        }

    def _peers(self, pid: int) -> tuple:
        # Process.other_peers(): every other process, ascending.
        return tuple(d for d in range(self.n) if d != pid)

    def resolve(self, sender: int, group: str, explicit) -> tuple:
        """One plan of ``sender`` as the ``(dests, delays)`` the network carries.

        ``dests`` is ``group`` in send order (an empty half falls back to
        every honest pid, as the behaviour's multicast does); ``delays`` are
        the ``explicit`` ones through :meth:`clamp`, else the delay policy's
        -- ``None`` under uniform delays, drawn per message from the network
        RNG at emit time.
        """
        if group == ALL:
            dests = self._peers(sender)
        else:
            dests = tuple(
                (self.fast_group if group == FAST else self.slow_group)
                or self.honest_pids
            )
        if explicit is not None:
            return dests, tuple(map(self.clamp, explicit))
        if self.delay_mode == "uniform":
            return dests, None
        return dests, tuple(self._pair_delay(d) for d in dests)

    def clamp(self, raw: float) -> float:
        """``Network._emit``'s window: an explicit delay crosses it too."""
        return min(self.tdel, max(self.tmin, raw))

    def _pair_delay(self, dest: int) -> float:
        # Exactly Network.send's clamp min(tdel, max(tmin, raw)) for each
        # deterministic policy.
        if self.delay_mode == "min":
            return min(self.tdel, max(self.tmin, 0.0))
        if self.delay_mode == "max":
            return min(self.tdel, max(self.tmin, float("inf")))
        if self.delay_mode == "midpoint":
            return min(self.tdel, max(self.tmin, 0.5 * (self.tmin + self.tdel)))
        if self.delay_mode == "targeted":
            raw = 0.0 if dest in self.fast_set else float("inf")
            return min(self.tdel, max(self.tmin, raw))
        raise LaneFallback(f"delay_mode {self.delay_mode!r} is not deterministic")


def _delay_classes(dests, delays, actor_col) -> tuple:
    """Group one sender's actor destinations by delay value.

    Returns ``((delay, ((position, dest), ...)), ...)``: every destination
    in ``actor_col`` appears in exactly one class, each class in send
    order.  Deterministic delay policies give a sender one or two classes.
    """
    classes: dict = {}
    for p, d in enumerate(dests):
        if d in actor_col:
            classes.setdefault(delays[p], []).append((p, d))
    return tuple((delay, tuple(pairs)) for delay, pairs in classes.items())


def _arrivals(classes, batch, tau) -> list:
    """The ``(batch, dest)`` deliveries of ``batch`` landing exactly on ``tau``.

    ``classes`` is the sender's :func:`_delay_classes` table.  Two distinct
    delay values can round onto the same instant; their classes are then
    merged by send position, so the order is the per-destination scan's.
    """
    time = batch.time
    hits = [pairs for delay, pairs in classes if time + delay == tau]
    if not hits:
        return []
    pairs = hits[0] if len(hits) == 1 else sorted(p for h in hits for p in h)
    return [(batch, d) for _, d in pairs]


def _honest_drifting_clocks(layout: _Layout, scenario) -> list:
    """The lane's honest drifting clocks, from the recipe ``build_cluster`` uses."""
    params = layout.params
    offsets = _lane_offsets_list(layout, scenario)
    horizon = scenario.horizon()
    return [
        honest_clock(
            "random", i, offsets[i], rho=params.rho, seed=scenario.seed,
            period=params.period, tdel=params.tdel, horizon=horizon,
        )
        for i in range(layout.h)
    ]


class _DriftTables:
    """Vectorized segment-walk read/invert over precomputed drift breakpoints.

    Each honest process's piecewise-linear rate trajectory is reconstructed
    up front (:func:`_honest_drifting_clocks`) and laid out as
    ``(lane, actor, segment)`` arrays; ``read``/``invert`` then mirror
    :class:`~repro.sim.clocks.PiecewiseLinearClock`'s ``bisect_right``
    segment selection with ``searchsorted`` / cumulative comparison, using
    exactly the same float expressions per segment.  Faulty actor columns
    keep ``FixedRateClock(1.0, 0.0)``'s closed forms via the honest-column
    mask: a fixed-rate clock may *not* be rewritten as a multi-segment
    piecewise table, because the accumulated ``value + rate * dt`` floats
    differ from the closed form.
    """

    def __init__(self, layout: _Layout, scenarios: list) -> None:
        np = layout.np
        self.np = np
        self.clocks = [_honest_drifting_clocks(layout, sc) for sc in scenarios]
        starts = list(self.clocks[0][0]._starts)
        for lane in self.clocks:
            for clock in lane:
                if list(clock._starts) != starts:
                    raise LaneFallback(
                        "drifting-clock segment boundaries are not lane-uniform"
                    )
        L, A, K = len(scenarios), layout.A, len(starts)
        self.starts = np.array(starts, dtype=float)
        # Faulty columns carry inert identity segments (rate 1, value ==
        # start); their outputs are replaced by the fixed-rate closed form.
        rates = np.ones((L, A, K), dtype=float)
        values = np.tile(self.starts, (L, A, 1))
        for l, lane in enumerate(self.clocks):
            for i, clock in enumerate(lane):
                rates[l, i, :] = clock._rates
                values[l, i, :] = clock._values
        self.rates = rates
        self.values = values
        self.honest = np.arange(A) < layout.h

    def invert(self, hw):
        # PiecewiseLinearClock.invert: local <= offset -> 0.0, else segment
        # i = bisect_right(values, local) - 1, starts[i] + (local - v) / r.
        np = self.np
        rates, values = self.rates, self.values
        idx = (values <= hw[..., None]).sum(axis=-1) - 1
        idx = np.clip(idx, 0, values.shape[-1] - 1)
        v = np.take_along_axis(values, idx[..., None], axis=-1)[..., 0]
        r = np.take_along_axis(rates, idx[..., None], axis=-1)[..., 0]
        drift = np.where(
            hw <= values[..., 0], 0.0, self.starts[idx] + (hw - v) / r
        )
        # FixedRateClock(1.0, 0.0).invert: local <= 0 -> 0.0 else local.
        fixed = np.where(hw <= 0.0, 0.0, hw)
        return np.where(self.honest[: drift.shape[-1]], drift, fixed)

    def read(self, t):
        # PiecewiseLinearClock.read: t <= 0 -> offset, else segment
        # i = bisect_right(starts, t) - 1, values[i] + rates[i] * (t - s).
        np = self.np
        rates, values = self.rates, self.values
        idx = np.searchsorted(self.starts, t, side="right") - 1
        idx = np.clip(idx, 0, len(self.starts) - 1)
        v = np.take_along_axis(values, idx[..., None], axis=-1)[..., 0]
        r = np.take_along_axis(rates, idx[..., None], axis=-1)[..., 0]
        drift = np.where(
            t <= 0.0, values[..., 0], v + r * (t - self.starts[idx])
        )
        # FixedRateClock(1.0, 0.0).read: offset + rate * t == t, exactly.
        return np.where(self.honest[: drift.shape[-1]], drift, t)


def _phase1(layout: _Layout, scenarios: list, lane_offsets: list, drift=None) -> Iterator:
    """Lockstep round evaluation for all lanes; returns an iterator of per-lane round lists.

    Every array carries a leading lane axis and every operation is
    lane-independent along it, so a block of ``L`` lanes costs one set of
    array calls per round, not ``L``.  The block is solved before this
    returns; the iterator it returns converts one lane per ``next``, to its
    ``list[_Round]`` or by raising the :class:`LaneFallback` that records
    why the lane left the proven regime (the first guard it tripped, in the
    order a lane alone would meet them); a failed lane stays in the arrays,
    masked, and is neither waited for nor read again.
    """
    np = layout.np
    A, S, E, h = layout.A, layout.S, layout.E, layout.h
    L = len(scenarios)
    R = scenarios[0].rounds
    rates = layout.rates
    D_act, D_eager = layout.D[:A], layout.D[A:]
    cand = np.empty((L, S, A))

    offs = np.zeros((L, A))
    offs[:, :h] = lane_offsets

    adj = np.zeros((L, A))
    arm = np.zeros((L, A))
    active = np.ones((L, A), dtype=bool)
    max_prev_acc = np.zeros(L)

    # Per-round ``(L, A)`` rows: ``T, Acc, before, adj_after`` and ``ann,
    # valid, active``.  They stay arrays until a lane's Phase 2 asks for
    # them, so a block holds one lane's worth of Python lists, not L.
    values: list = []
    flags: list = []
    arrivals: list = []
    failed: list = [None] * L
    dead = np.zeros(L, dtype=bool)

    def fail(mask, reason):
        # ``mask`` is (L,) or (L, A): any set bit refuses the lane, first
        # reason wins.
        if mask.any():
            hit = mask.reshape(L, -1).any(axis=1) & ~dead
            for l in np.flatnonzero(hit).tolist():
                failed[l] = LaneFallback(reason)
            dead[hit] = True

    def timers(k):
        # set_logical_timer -> set_timer_local: invert the hardware clock at
        # k*P - adj, clamp to the arming instant.
        hw = k * layout.P - adj
        if drift is not None:
            inv = drift.invert(hw)
        else:
            inv = np.where(hw <= offs, 0.0, (hw - offs) / rates)
        return np.maximum(inv, arm)

    for k in range(1, R + 1):
        tgt = k * layout.P + layout.alpha
        T = timers(k)
        # EagerSigner's round-k send instant, while it still sends.
        te = (
            max(0.0, EAGER_FACTOR * k * layout.P)
            if E > 0 and k <= EAGER_MAX_ROUND else None
        )
        # Candidate arrival matrix: sender row s announced at its own instant
        # delivers to actor column d at send + clamped delay; ``D`` is inf
        # exactly where s never reaches d, and so is the sum.  Actor rows
        # are masked by the announce fixpoint below.
        cand[:, :A] = T[:, :, None] + D_act
        cand[:, A:] = np.inf if te is None else te + D_eager

        ann, Acc, valid, arr = _solve_round(
            layout, k, T, cand, active, arm, max_prev_acc, te, dead, fail
        )
        # Advance lane state with the same float expressions set_to uses.
        reading = drift.read(Acc) if drift is not None else offs + rates * Acc
        before = reading + adj
        adj = np.where(valid, tgt - reading, adj)
        arm = np.where(valid, Acc, arm)
        if k < R:
            fail(
                active & ~valid & ~layout.is_crash,
                f"a faulty participant missed round {k}",
            )
        values += (T, Acc, before, adj)
        flags += (ann, valid, active)
        arrivals.append(arr)
        if dead.all():
            break
        active = valid
        max_prev_acc = np.where(valid, Acc, -np.inf).max(axis=1)

    # The run is cut at the last honest round-R acceptance: it must lie
    # within the static horizon, and no round-(R+1) timer may fire at or
    # before it.
    t_star = Acc[:, :h].max(axis=1)
    horizons = np.array([sc.horizon() for sc in scenarios])
    fail(~(t_star <= horizons), "run exceeds the static horizon")
    fail(
        valid & (timers(R + 1) <= t_star[:, None]),
        "a next-round timer lands on the final instant",
    )
    values, flags = np.array(values), np.array(flags)  # (4R, L, A), (3R, L, A)

    def lane(l):
        if failed[l] is not None:
            raise failed[l]
        v, f = values[:, l].tolist(), flags[:, l].tolist()
        return [
            _Round(k + 1, (k + 1) * layout.P + layout.alpha,
                   *v[4 * k:4 * k + 4], *f[3 * k:3 * k + 3], arrivals[k][l])
            for k in range(R)
        ]

    return map(lane, range(L))


def _order_statistics(np, arr, T, ann, f):
    """``(X_wo, X)``: the (f+1)-th arrival per column without / with the owner's own timer.

    ``arr`` is ``(..., S, A)`` with an ``inf`` diagonal (no sender is its own
    destination), so counting column ``j``'s own announce at ``T[j]`` is
    *inserting* ``T[j]`` into the sorted column in place of one ``inf``: the
    (f+1)-th smallest becomes ``max(srt[f-1], T[j])`` when ``T[j] < srt[f]``
    (just ``T[j]`` at ``f == 0``) and stays ``srt[f]`` otherwise.  One sort
    serves both; every value is selected, none computed.
    """
    srt = np.sort(arr, axis=-2)
    X_wo = srt[..., f, :]
    own = np.maximum(srt[..., f - 1, :], T) if f else T
    return X_wo, np.where(ann & (T < X_wo), own, X_wo)


def _solve_round(layout, k, T, cand, active, arm, max_prev_acc, te, dead, fail):
    """Fixpoint + guards for round ``k`` of a whole block of lanes.

    ``T``/``active``/``arm`` are ``(L, A)``, ``cand`` is ``(L, S, A)``,
    ``max_prev_acc``/``dead`` are ``(L,)``.  ``fail(mask, reason)`` refuses
    lanes (marking them in ``dead``).  Both loops are deterministic maps
    applied lane by lane, and a lane's converged state is a fixed point of
    them, so iterating the block until its slowest live lane converges
    leaves every other lane exactly where it converged alone; the iteration
    caps depend only on the layout, so they are each lane's own.  Returns
    ``(ann, Acc, valid, arr)`` for the block.
    """
    np = layout.np
    A, f, h = layout.A, layout.f, layout.h
    crash_time = layout.crash_time
    is_crash = layout.is_crash
    D_act = layout.D[:A]

    timer_ok = active
    if crash_time is not None:
        crash_live = is_crash & active
        if k == 1:
            # Boot-order corner: the round-1 timer (intra 0) fires before the
            # halt (intra 1), so an announce -- and possibly an acceptance --
            # happens *at* the crash instant.  Measure it on the event loop.
            fail(
                crash_live & (T == crash_time),
                "crash instant coincides with a round-1 timer",
            )
        timer_ok = np.where(crash_live, active & (T < crash_time), active)

    # Strong round separation: every round-k event (timers, announce and
    # bundle deliveries) must lie strictly after every round-(k-1)
    # acceptance, which is what makes (a) timers precede same-instant
    # deliveries (non-eager sends happen after every timer was armed) and
    # (b) rounds pairwise instant-disjoint.  Eager signatures may legally
    # arrive early; the one ordering they could corrupt is checked below.
    if k >= 2:
        first_timer = np.where(active, T, np.inf).min(axis=1)  # T is finite
        fail(first_timer == np.inf, f"no participant armed round {k}")
        fail(
            ~(first_timer > max_prev_acc),
            f"rounds {k - 1} and {k} share an instant",
        )
        if te is not None:
            eager_hit = (cand[:, A:] == T[:, None, :]).any(axis=1)
            fail(
                timer_ok & eager_hit & (te <= arm),
                f"an eager signature races a round-{k} timer's arming instant",
            )

    rows_on = np.ones(cand.shape[:2], dtype=bool)
    ann = timer_ok
    for _ in range(A + 4):
        rows_on[:, :A] = ann
        arr = np.where(rows_on[:, :, None], cand, np.inf)
        X_wo, X = _order_statistics(np, arr, T, ann, f)
        # Bundle relaxation: an acceptance anywhere relays a proof that
        # accepts any pending receiver on arrival (min-plus fixpoint).
        Acc = np.where(active, X, np.inf)
        for _ in range(A + 2):
            # A sender relays at its acceptance instant unless it crashed
            # first; ``Acc`` is inf for whoever has not accepted and ``D``
            # for whoever is not reached, so the sum needs no other mask.
            relay = Acc
            if crash_time is not None:
                relay = np.where(~is_crash | (Acc < crash_time), Acc, np.inf)
            via = (relay[:, :, None] + D_act).min(axis=1)
            new_acc = np.where(active, np.minimum(X, via), np.inf)
            relaxed = dead | (new_acc == Acc).all(axis=1)
            Acc = new_acc
            if relaxed.all():
                break
        else:
            fail(~relaxed, f"bundle relaxation did not converge in round {k}")
        # A timer announces iff nothing else accepted its owner strictly
        # before the timer fired; at the shared instant the timer wins
        # (timers precede same-instant deliveries under the guards above).
        new_ann = timer_ok & (np.minimum(X_wo, via) >= T)
        settled = dead | (new_ann == ann).all(axis=1)
        ann = new_ann
        if settled.all():
            break
    else:
        fail(~settled, f"announce fixpoint did not converge in round {k}")

    valid = np.isfinite(Acc)  # inf wherever not active
    if crash_time is not None:
        valid &= ~is_crash | (Acc < crash_time)
        Acc = np.where(valid, Acc, np.inf)
    fail(~valid[:, :h], f"an honest process missed round {k}")
    return ann, Acc, valid, arr


def _by_instant(times: list, flags: list) -> dict:
    """``{instant: [flagged actor columns at it, ascending]}``."""
    at: dict = {}
    for j, (tau, on) in enumerate(zip(times, flags)):
        if on:
            at.setdefault(tau, []).append(j)
    return at


def _instants(rd) -> list:
    """Round ``rd``'s instants in time order: ``[(tau, accs, anns), ...]``.

    ``accs`` are the actor columns accepting at ``tau`` and ``anns`` those
    whose timer announces at ``tau``, both ascending -- one index pass over
    the actors instead of two scans per instant.
    """
    acc_at = _by_instant(rd.Acc, rd.valid)
    ann_at = _by_instant(rd.T, rd.ann)
    return [
        (tau, acc_at.get(tau, ()), ann_at.get(tau, ()))
        for tau in sorted(acc_at.keys() | ann_at.keys())
    ]


class _LaneAssembly:
    """Phase 2 + replay for one lane: exact timeline, stats, recorder feed."""

    def __init__(self, layout: _Layout, rounds: list, lane_offsets: list,
                 clocks, sample_messages):
        self.layout = layout
        self.rounds = rounds
        self.lane_offsets = lane_offsets
        #: The lane's reconstructed drifting clocks, or ``None`` (fixed rate).
        self.clocks = clocks
        self.sample_messages = sample_messages
        self.batches: list = []
        self.eager_batches: list = []
        self.emissions: list = []
        self.seq = 0
        self.rank = [pid - layout.n for pid in layout.actor_pids]
        self.next_rank = 0

    # -- batch creation -------------------------------------------------------

    def _add_batch(self, time, sender, kind, round_):
        batch = _Batch(
            time, sender, kind, round_,
            self.layout.dests[sender], self.layout.delays[sender], self.seq,
        )
        self.seq += 1
        self.batches.append(batch)
        return batch

    # -- driving --------------------------------------------------------------

    def run(self) -> LaneOutcome:
        final = self.rounds[-1]
        t_star = max(final.Acc[: self.layout.h])
        self._create_eager_batches(t_star)
        for rd in self.rounds:
            for tau, accs, anns in _instants(rd):
                if rd is final and tau > t_star:
                    continue
                final_here = rd is final and tau == t_star
                # An acceptance among several timers of one instant may be
                # triggered by its own timer or by a later timer's zero-delay
                # delivery: only the walk knows where the bundle goes.
                if final_here or len(accs) >= 2 or (accs and len(anns) >= 2):
                    self._walk(tau, rd, accs, anns, final_here)
                else:
                    self._direct(tau, rd, accs, anns)
        # Eager batches were created up front, ahead of their send instants.
        self.batches.sort(key=_send_order)
        return _finalize_lane(
            self.layout, self.lane_offsets, self.batches, self.emissions,
            t_star, self.sample_messages, clocks=self.clocks,
        )

    def _create_eager_batches(self, t_star):
        layout = self.layout
        for pid in layout.eager_pids:
            for k in range(1, EAGER_MAX_ROUND + 1):
                te = max(0.0, EAGER_FACTOR * k * layout.P)
                if te > t_star:
                    break
                batch = self._add_batch(te, pid, _SIG, k)
                self.eager_batches.append(batch)

    # -- uncontended instants -------------------------------------------------

    def _direct(self, tau, rd, accs, anns):
        layout = self.layout
        acc = accs[0] if accs else None
        timer_trig = acc is not None and rd.ann[acc] and rd.T[acc] == tau
        bundled = False
        for j in sorted(anns, key=lambda j: self.rank[j]):
            self._add_batch(tau, layout.actor_pids[j], _SIG, rd.k)
            if timer_trig and j == acc:
                self._accept(j, tau, rd)
                bundled = True
        if acc is not None and not bundled:
            self._accept(acc, tau, rd)

    def _accept(self, j, tau, rd):
        layout = self.layout
        pid = layout.actor_pids[j]
        if pid < layout.h:
            self.emissions.append(
                (tau, pid, rd.k, rd.before[j], rd.adj_after[j], rd.tgt)
            )
        batch = self._add_batch(tau, pid, _BUNDLE, rd.k)
        self.rank[j] = self.next_rank
        self.next_rank += 1
        return batch

    # -- contended instants: exact insertion-order walk -----------------------

    def _walk(self, tau, rd, accs, anns, is_final):
        layout = self.layout
        k = rd.k
        f1 = layout.f + 1
        h = layout.h
        actor_pids = layout.actor_pids
        crash_time = layout.crash_time
        crashed = crash_time is not None and crash_time <= tau
        acc_here = set(accs)
        pending = set()
        for j in range(layout.A):
            if not rd.active[j]:
                continue
            if rd.valid[j] and rd.Acc[j] < tau:
                continue
            if crashed and layout.is_crash[j]:
                continue
            pending.add(j)
        below = (rd.arr < tau).sum(axis=0).tolist()
        counts = {
            j: below[j] + (1 if rd.ann[j] and rd.T[j] < tau else 0)
            for j in pending
        }
        honest_left = 0
        if is_final:
            for j in pending:
                if actor_pids[j] < h:
                    if j not in acc_here:
                        raise LaneFallback("final instant misses an honest acceptance")
                    honest_left += 1
            if honest_left == 0:
                raise LaneFallback("final instant has no honest acceptance")
        accepted: set = set()
        cut = False

        # Deliveries scheduled before this instant, in insertion (= creation)
        # order; batches created during the instant append their zero-delay
        # arrivals at the tail, which is exactly where their event-queue
        # sequence numbers put them.
        delay_classes = layout.delay_classes
        deliveries = []
        # Every clamped delay is <= tdel and float addition is monotone, so
        # only batches sent within tdel of the instant can land on it.
        tdel = layout.tdel
        recent = [b for b in self.batches if b.time < tau <= b.time + tdel]
        for b in sorted(recent, key=_send_order):
            deliveries += _arrivals(delay_classes[b.sender], b, tau)

        def spawn(batch):
            for delay, pairs in delay_classes[batch.sender]:
                if delay == 0.0:
                    deliveries.extend([(batch, d) for _, d in pairs])

        def accept_in_walk(j):
            nonlocal honest_left, cut
            if j not in acc_here:
                raise LaneFallback(
                    f"walk and relaxation disagree on an acceptance in round {k}"
                )
            accepted.add(j)
            spawn(self._accept(j, tau, rd))
            if is_final and actor_pids[j] < h:
                honest_left -= 1
                if honest_left == 0:
                    cut = True

        def fire_announce(j):
            if j not in pending or j in accepted:
                raise LaneFallback(f"round-{k} timer fired for a settled process")
            spawn(self._add_batch(tau, actor_pids[j], _SIG, k))
            counts[j] += 1
            if counts[j] >= f1:
                accept_in_walk(j)

        # Class 0: boot-scheduled events (eager send slots; round-1 timers),
        # ordered by (pid, boot-intra): the timer is each pid's first boot
        # action, the k-th eager send its k-th.
        boots = []
        for b in self.eager_batches:
            if b.time == tau:
                boots.append(((b.sender, b.round), "eager", b))
        if k == 1:
            for j in anns:
                boots.append(((actor_pids[j], 0), "timer", j))
        for _, kind, payload in sorted(boots, key=lambda item: item[0]):
            if cut:
                break
            if kind == "eager":
                spawn(payload)
            else:
                fire_announce(payload)
        # Class 1: round>=2 timers in arming order (the rank each owner's
        # previous acceptance got).
        if k >= 2 and not cut:
            for _, j in sorted((self.rank[j], j) for j in anns):
                if cut:
                    break
                fire_announce(j)
        # Class 2: deliveries, in insertion order, growing at the tail.
        i = 0
        while i < len(deliveries) and not cut:
            b, d = deliveries[i]
            i += 1
            j = layout.actor_col[d]
            if j not in pending or j in accepted:
                continue
            if b.kind == _BUNDLE:
                if b.round == k:
                    accept_in_walk(j)
                elif b.round > k:
                    raise LaneFallback("a bundle for a future round arrived early")
            else:
                if b.round != k:
                    continue
                counts[j] += 1
                if counts[j] >= f1:
                    accept_in_walk(j)

        if cut:
            return
        if accepted != pending & acc_here:
            raise LaneFallback(
                f"walk and relaxation disagree on round {k}'s acceptance set"
            )
        if is_final:
            raise LaneFallback("final instant did not complete the round")


def _unread_delay(bits: int, p: int, tmin: float, tdel: float) -> float:
    """The uniform delay of message ``p`` of a batch no receiver acts on.

    ``bits`` is the ``getrandbits(64 * len(dests))`` the replay took where
    the event loop draws ``random()`` once per message.  CPython's
    ``random()`` consumes two 32-bit outputs ``a``, ``b`` and returns
    ``((a >> 5) * 2**26 + (b >> 6)) / 2**53``; ``getrandbits`` lays the same
    outputs out little-endian, so words ``2p`` and ``2p + 1`` are draw
    ``p``'s and the generator is left in the same state either way.
    """
    a = (bits >> (64 * p + 5)) & 0x7FFFFFF
    b = (bits >> (64 * p + 38)) & 0x3FFFFFF
    return tmin + (a * 67108864.0 + b) / 9007199254740992.0 * (tdel - tmin)


def _finalize_lane(layout, lane_offsets, batches, emissions, t_star,
                   sample_messages, clocks=None) -> LaneOutcome:
    """Shared finalization of one served lane (both vector engines).

    ``batches`` must already be in the event loop's ``(time, seq)`` send
    order: message ids are positions in it.  One pass computes the network
    statistics arithmetically from the batch layout and selects sampled
    messages by index stepping; the acceptance emissions are then replayed
    -- in global order -- into a real
    :class:`~repro.sim.recorder.OnlineMetricsRecorder`, so everything
    downstream of the recorder seam is the exact code the event loop uses.
    """
    params = layout.params
    samples = None if sample_messages is None else []
    index = math.inf if samples is None else 0  # next sampled msg_id
    total = 0
    by_sender: dict = {}
    by_type: dict = {}
    for b in batches:
        count = len(b.dests)
        while index < total + count:
            p = index - total
            delays = b.delays
            samples.append(MessageSample(
                msg_id=index,
                sender=b.sender,
                dest=b.dests[p],
                kind=b.kind,
                send_time=b.time,
                deliver_time=b.time + (
                    _unread_delay(delays, p, layout.tmin, layout.tdel)
                    if isinstance(delays, int) else delays[p]
                ),
            ))
            index += sample_messages
        total += count
        by_sender[b.sender] = by_sender.get(b.sender, 0) + count
        by_type[b.kind] = by_type.get(b.kind, 0) + count
    stats = NetworkStats(
        total_messages=total,
        messages_by_sender=by_sender,
        messages_by_type=by_type,
    )

    recorder = OnlineMetricsRecorder(
        rate_low=params.min_rate,
        rate_high=params.max_rate,
        sample_messages=sample_messages,
    )
    for i, pid in enumerate(layout.honest_pids):
        if clocks is not None:
            clock = clocks[i]  # the lane's drifting clock
        else:
            clock = FixedRateClock(rate=layout.honest_rates[i], offset=lane_offsets[i])
        recorder.register_process(pid, clock, faulty=False)
    for pid in range(layout.h, layout.n):
        recorder.register_process(
            pid, FixedRateClock(rate=1.0, offset=0.0), faulty=True
        )
    for time, pid, round_, before, adj_after, tgt in emissions:
        recorder.on_adjustment(pid, time, adj_after)
        recorder.on_resync(ResyncEvent(
            pid=pid, round=round_, time=time,
            logical_before=before, logical_after=tgt,
        ))
    if samples is not None:
        recorder.ingest_message_samples(samples)
    summary = recorder.finalize(t_star, stats)
    return LaneOutcome(summary=summary)


# Event codes of the exact-replay heap.  Events are plain tuples
# ``(time, seq, code, ...)``; ``seq`` is unique, so heap comparisons never
# reach the payload -- exactly the event queue's (time, insertion-seq) order.
_EV_TIMER = 0    # (t, seq, 0, pid, round)
_EV_HALT = 1     # (t, seq, 1, pid)
_EV_EAGER = 2    # (t, seq, 2, pid, round)
_EV_FLOOD = 3    # (t, seq, 3, pid)
_EV_DELIVER = 4  # (t, seq, 4, dest, kind, sender, round, payload)


class _ExactReplay:
    """Per-lane exact replay of the event loop, without the event loop.

    Mirrors the discrete execution by construction: a heap of plain tuples
    ordered by ``(time, seq)`` where ``seq`` is allocated in the event
    loop's exact push order, protocol state as plain sets (the signature /
    echo trackers' observable state), the network RNG consumed in global
    send order under ``uniform`` delays, and each flood adversary's RNG
    stream replayed draw for draw.  Deliveries that are provably no-ops on
    the event loop (payload kinds the receiving algorithm ignores, forged
    signatures that fail verification, deliveries to non-protocol faulty
    or already halted processes, and rounds already below the
    destination's tracker floor when sent -- ``floor`` is monotone, so they
    are still below the window on arrival) are never pushed -- popping a
    no-op has no side effects and ``seq`` still advances once per message,
    so every surviving event keeps its exact ``(time, seq)`` key and the
    execution is unchanged.  A delivery whose round fell below the floor
    in flight is popped and dropped by the same test before any rule runs,
    and a broadcast nobody reads (``deliver=False``) advances the network
    RNG without drawing its delays.  The per-message constants the
    event loop pays (envelope/event allocation, handler dispatch,
    signature verification, per-message recorder and stats calls) are
    replaced by set operations and batch-level accounting.

    Float parity: every arithmetic expression (timer inversion, logical
    clock adjustment, delay clamping and scaling, flood tick accumulation)
    is written exactly as the mirrored object evaluates it, in pure Python
    floats.
    """

    def __init__(self, layout: _Layout, scenario):
        self.layout = layout
        self.scenario = scenario
        self.sample_messages = scenario.sample_messages
        self.n = layout.n
        self.h = layout.h
        self.f = layout.f
        self.P = layout.P
        self.alpha = layout.alpha
        self.tmin = layout.tmin
        self.tdel = layout.tdel
        self.is_echo = layout.algorithm == "echo"
        self.echo_threshold = layout.f + 1
        self.accept_threshold = 2 * layout.f + 1
        self.actor_set = frozenset(layout.actor_pids)
        self.R = scenario.rounds

        # Per-process clock functions as pure Python floats (H(t) = offset
        # + rate * t): build_cluster's honest clocks, faulty clocks at rate
        # 1 / offset 0.  Drifting ("random") honest clocks are the exact
        # PiecewiseLinearClock objects instead.
        faulty = self.n - self.h
        self.lane_offsets = _lane_offsets_list(layout, scenario)
        self.offs = self.lane_offsets + [0.0] * faulty
        self.rate = layout.honest_rates + [1.0] * faulty
        self.clocks = (
            _honest_drifting_clocks(layout, scenario)
            if layout.clock_mode == "random" else None
        )

        # Protocol state (the trackers' observable state, as plain sets).
        self.cur = [1] * self.n
        self.adj = [0.0] * self.n
        self.floor = [0] * self.n
        self.broadcasted = [set() for _ in range(self.n)]
        if self.is_echo:
            # round -> [echoed, accept_reported, init_senders, echo_senders];
            # a delivery's kind code indexes its sender set.
            self.est = [dict() for _ in range(self.n)]
        else:
            # round -> set of signer ids holding a valid signature
            self.sigs = [dict() for _ in range(self.n)]
        self.halted: set = set()

        # Replayed RNG streams.
        self.net_rng = (
            Random(scenario.seed + 1) if layout.delay_mode == "uniform" else None
        )
        self.policies = layout.policies
        self.adv_rng = {
            pid: Random(scenario.seed + pid)
            for pid in layout.flood_pids + layout.random_pids
        }

        self.heap: list = []
        self.seq = self.n  # boot events consumed seqs 0 .. n-1
        self.now = 0.0
        #: ``kernel.replay`` span telemetry: heap events popped, stale pushes skipped.
        self.events = 0
        self.pruned = 0
        self.batches: list = []
        self.emissions: list = []
        self.batch_seq = 0
        self.reached = [False] * self.h
        self.remaining = self.h
        self.done = False

    # -- scheduling mirrors ---------------------------------------------------

    def _arm_timer(self, pid: int, k: int) -> None:
        # ClockSyncProcess.schedule_round -> set_logical_timer ->
        # set_timer_local: invert the process clock, clamp to now.
        hw = k * self.P - self.adj[pid]
        if self.clocks is not None and pid < self.h:
            real = self.clocks[pid].invert(hw)
        else:
            offs = self.offs[pid]
            real = 0.0 if hw <= offs else (hw - offs) / self.rate[pid]
        if real < self.now:
            real = self.now
        heappush(self.heap, (real, self.seq, _EV_TIMER, pid, k))
        self.seq += 1

    def _broadcast(self, sender: int, kind: str, round_: int, deliver: bool,
                   payload=None) -> None:
        """A protocol-level ``broadcast`` call of ``sender``.

        A faulty participant whose plan changes per broadcast asks its
        policy (:mod:`repro.sim.adversary` -- the function *is* the draw
        table) with the replayed ``Random(seed + pid)``; only the plan is
        resolved here.
        """
        policy = self.policies.get(sender)
        if policy is None:
            self._emit(sender, kind, round_, deliver, payload)
            return
        layout = self.layout
        plan = policy(
            self.adv_rng.get(sender), self.tmin, self.tdel,
            layout.dests[sender], self.cur[sender],
        )
        if plan is None:
            # Dropped before the network: no batch, no stats, no seqs, no
            # network-RNG draws.
            return
        group, explicit = plan
        dests, delays = layout.plans[sender][group]
        if explicit is not None:
            # Explicit delays skip the network RNG but still cross its clamp.
            delays = tuple(map(layout.clamp, explicit))
        self._emit(
            sender, kind, round_, deliver, payload, dests=dests, delays=delays
        )

    def _emit(self, sender: int, kind: str, round_: int, deliver: bool,
              payload=None, *, dests=None, delays=None) -> None:
        """One broadcast/multicast: stats batch + (relevant) delivery pushes."""
        layout = self.layout
        if dests is None:
            dests = layout.dests[sender]
            delays = layout.delays[sender]
        if delays is None:
            # Network._emit under UniformDelay: one unit draw per
            # message in destination order, scaled into [tmin, tdel].
            if deliver:
                draw = self.net_rng.random
                width = self.tdel - self.tmin
                tmin = self.tmin
                delays = [tmin + draw() * width for _ in dests]
            else:
                # Nobody reads these delays unless a sample lands on one:
                # advance the stream by the same two words per message and
                # keep them as one integer (see _unread_delay).
                delays = self.net_rng.getrandbits(64 * len(dests))
        now = self.now
        self.batches.append(
            _Batch(now, sender, kind, round_, dests, delays, self.batch_seq)
        )
        self.batch_seq += 1
        if not deliver:
            self.seq += len(dests)
            return
        heap = self.heap
        actor_set = self.actor_set
        halted = self.halted
        floor = self.floor
        kind_code = _KIND_CODES[kind]
        seq = self.seq
        pruned = 0
        for d, delay in zip(dests, delays):
            if d in actor_set and d not in halted:
                if round_ < floor[d]:
                    pruned += 1
                else:
                    heappush(heap, (
                        now + delay, seq, _EV_DELIVER,
                        d, kind_code, sender, round_, payload,
                    ))
            seq += 1
        self.seq = seq
        self.pruned += pruned

    # -- protocol mirrors -----------------------------------------------------

    def _auth_add(self, pid: int, round_: int, signer: int) -> None:
        # SignatureTracker.add_own: window check, then record the signer.
        fl = self.floor[pid]
        if fl <= round_ <= fl + TRACKER_LOOKAHEAD:
            self.sigs[pid].setdefault(round_, set()).add(signer)

    def _auth_record(self, pid: int, kind_code: int, sender: int, round_: int,
                     proof) -> None:
        # AuthSyncProcess.on_message: SignatureTracker.add / add_many for
        # *valid* signatures (forged ones never reach this) -- one window
        # check per delivery, then the signer set -- followed by try_accept.
        fl = self.floor[pid]
        if round_ < fl or round_ > fl + TRACKER_LOOKAHEAD:
            return
        sigs = self.sigs[pid]
        signers = sigs.get(round_)
        if signers is None:
            signers = sigs[round_] = set()
        if kind_code == _KIND_SIG:
            signers.add(sender)
        else:  # bundle: the whole proof in one update
            signers.update(proof)
        # ClockSyncProcess.try_accept accepts every reached round >= cur in
        # order.  Every earlier mutation left none, so only the touched round
        # can be reached now, and accepting it touches no other round: the
        # loop is this one call.  A future round (> cur) is accepted at
        # once; the rounds it skips fall below the floor and never are.
        if len(signers) >= self.echo_threshold and round_ >= self.cur[pid]:
            self._accept(pid, round_)

    def _echo_record(self, pid: int, slot: int, sender: int, round_: int) -> None:
        # EchoTracker.record_init / record_echo (``slot`` is the kind code)
        # followed by EchoSyncProcess._apply_actions.
        fl = self.floor[pid]
        if round_ < fl or round_ > fl + TRACKER_LOOKAHEAD:
            return
        rounds = self.est[pid]
        state = rounds.get(round_)
        if state is None:
            state = rounds[round_] = [False, False, set(), set()]
        state[slot].add(sender)
        # EchoTracker._evaluate: f+1 inits or echoes -> echo (once);
        # 2f+1 echoes -> accept (reported once).
        echoes = len(state[3])
        accept = not state[1] and echoes >= self.accept_threshold
        if accept:
            state[1] = True
        if not state[0] and (
            echoes >= self.echo_threshold
            or len(state[2]) >= self.echo_threshold
        ):
            self._echo_send(pid, round_, state)
        # As in _auth_record: only the touched round can be newly reached.
        if accept and round_ >= self.cur[pid]:
            self._accept(pid, round_)

    def _echo_send(self, pid: int, round_: int, state) -> None:
        # EchoSyncProcess._send_echo: broadcast first, then count own echo
        # (EchoTracker.note_own_echo marks the round echoed and records it).
        self._broadcast(pid, _ECHO, round_, deliver=True)
        state[0] = True
        self._echo_record(pid, _KIND_ECHO, pid, round_)

    def _announce(self, pid: int, k: int) -> None:
        if k in self.broadcasted[pid]:
            return
        self.broadcasted[pid].add(k)
        if self.is_echo:
            # EchoSyncProcess.announce_round: broadcast init, then count own.
            self._broadcast(pid, _INIT, k, deliver=True)
            self._echo_record(pid, _KIND_INIT, pid, k)
        else:
            # AuthSyncProcess.announce_round: record own signature, then
            # broadcast it, then check the threshold -- of round k, the only
            # one touched (a timer fires for k == cur).
            self._auth_add(pid, k, pid)
            self._broadcast(pid, _SIG, k, deliver=True)
            if len(self.sigs[pid].get(k, ())) >= self.echo_threshold:
                self._accept(pid, k)

    def _accept(self, pid: int, k: int) -> None:
        # ClockSyncProcess.accept_round: resynchronize, relay (auth), then
        # advance the round and re-arm the timer.
        now = self.now
        tgt = k * self.P + self.alpha
        if self.clocks is not None and pid < self.h:
            reading = self.clocks[pid].read(now)
        else:
            reading = self.offs[pid] + self.rate[pid] * now
        before = reading + self.adj[pid]
        adj_after = tgt - reading
        self.adj[pid] = adj_after
        if pid < self.h:
            self.emissions.append((now, pid, k, before, adj_after, tgt))
        if not self.is_echo:
            # AuthSyncProcess.after_acceptance: contribute our signature if
            # missing, then relay the first f+1 signatures by signer id.
            if k not in self.broadcasted[pid]:
                self.broadcasted[pid].add(k)
                self._auth_add(pid, k, pid)
            proof = tuple(sorted(self.sigs[pid].get(k, ())))[: self.f + 1]
            self._broadcast(pid, _BUNDLE, k, deliver=True, payload=proof)
        new_round = k + 1
        self.cur[pid] = new_round
        if new_round > self.floor[pid]:
            self.floor[pid] = new_round
            rounds = self.est[pid] if self.is_echo else self.sigs[pid]
            for r in [r for r in rounds if r < new_round]:
                del rounds[r]
        self._arm_timer(pid, new_round)
        if pid < self.h and k >= self.R and not self.reached[pid]:
            self.reached[pid] = True
            self.remaining -= 1
            if self.remaining == 0:
                self.done = True

    # -- adversary mirrors ----------------------------------------------------

    def _flood_tick(self, pid: int) -> None:
        # ForgeAndFlood._flood, draw for draw.  The forged signature and
        # bundle fail verification and the garbage is ignored by both
        # algorithms; the init only matters to echo trackers.
        _, round_, _, _ = flood_draws(
            self.adv_rng[pid], self.layout.honest_pids, FLOOD_MAX_ROUND
        )
        self._emit(pid, _SIG, round_, deliver=False)
        self._emit(pid, _BUNDLE, round_, deliver=False)
        self._emit(pid, _GARBAGE, None, deliver=False)
        self._emit(pid, _INIT, round_, deliver=self.is_echo)
        heappush(self.heap, (self.now + FLOOD_INTERVAL, self.seq, _EV_FLOOD, pid))
        self.seq += 1

    # -- driving --------------------------------------------------------------

    def _boot(self) -> None:
        # Simulation.add_process schedules every boot at time 0 with
        # seq = pid; nothing else can fire at time 0 before the last boot,
        # so processing them directly, in pid order, is order-exact.
        layout = self.layout
        heap = self.heap
        for pid in range(self.n):
            if pid in self.actor_set:
                self._arm_timer(pid, 1)
                if pid in layout.crash_pids:
                    heappush(heap, (layout.crash_time, self.seq, _EV_HALT, pid))
                    self.seq += 1
            elif pid in layout.eager_pids:
                for k in range(1, EAGER_MAX_ROUND + 1):
                    te = max(0.0, EAGER_FACTOR * k * self.P)
                    heappush(heap, (te, self.seq, _EV_EAGER, pid, k))
                    self.seq += 1
            elif pid in layout.flood_pids:
                heappush(heap, (0.0 + FLOOD_INTERVAL, self.seq, _EV_FLOOD, pid))
                self.seq += 1
            # silent faulty processes schedule nothing

    def run(self) -> LaneOutcome:
        if self.is_echo and self.n <= 3 * self.f:
            # EchoTracker's constructor raises on the event loop; never
            # serve a run the oracle would refuse to build.
            raise LaneFallback("echo broadcast requires n > 3f")
        horizon = self.scenario.horizon()
        heap = self.heap
        halted = self.halted
        floor = self.floor
        is_echo = self.is_echo
        echo_record = self._echo_record
        auth_record = self._auth_record
        self._boot()
        for events in itertools.count(1):
            if not heap:
                raise LaneFallback(
                    "event queue drained before the target round completed"
                )
            ev = heappop(heap)
            t = ev[0]
            if t > horizon:
                raise LaneFallback("run exceeds the static horizon")
            self.now = t
            code = ev[2]
            if code == _EV_DELIVER:
                dest = ev[3]
                # _emit's stale test again, at arrival: the floor may have
                # risen in flight, and the rules return on a round below it.
                if dest not in halted and ev[6] >= floor[dest]:
                    if is_echo:
                        echo_record(dest, ev[4], ev[5], ev[6])
                    else:
                        auth_record(dest, ev[4], ev[5], ev[6], ev[7])
            elif code == _EV_TIMER:
                pid = ev[3]
                if pid not in halted and self.cur[pid] == ev[4]:
                    self._announce(pid, ev[4])
            elif code == _EV_EAGER:
                pid = ev[3]
                if pid not in halted:
                    if is_echo:
                        # EagerEchoer._push_round: init then echo.
                        self._emit(pid, _INIT, ev[4], deliver=True)
                        self._emit(pid, _ECHO, ev[4], deliver=True)
                    else:
                        # EagerSigner._sign_round: one genuine signature.
                        self._emit(pid, _SIG, ev[4], deliver=True)
            elif code == _EV_FLOOD:
                if ev[3] not in halted:
                    self._flood_tick(ev[3])
            else:  # _EV_HALT
                halted.add(ev[3])
            if self.done:
                self.events = events
                return _finalize_lane(
                    self.layout, self.lane_offsets, self.batches,
                    self.emissions, self.now, self.sample_messages,
                    clocks=self.clocks,
                )


_KIND_SIG = 0
_KIND_BUNDLE = 1
_KIND_INIT = 2
_KIND_ECHO = 3
_KIND_CODES = {_SIG: _KIND_SIG, _BUNDLE: _KIND_BUNDLE, _INIT: _KIND_INIT, _ECHO: _KIND_ECHO}


def _layout_key(scenario):
    p = scenario.params
    return (
        p.n, p.f, p.rho, p.period, p.tmin, p.tdel, p.alpha_value,
        scenario.algorithm, scenario.attack, scenario.clock_mode,
        scenario.delay_mode, scenario.actual_faults, scenario.rounds,
    )


#: ``(key, layout)`` of the family this process served last.  A layout is a
#: function of its :func:`_layout_key` alone and is only read after
#: construction; a sweep visits its cells family by family, so keeping the
#: last one saves rebuilding roles, destination tuples, ``D`` and delay
#: classes per call, and one entry is all the state there is.
_last_layout: tuple = (None, None)


def _layout_for(key, scenario, np) -> _Layout:
    global _last_layout
    if _last_layout[0] != key:
        _last_layout = (key, _Layout(scenario, np))
    return _last_layout[1]


def _refuse(outcomes: list, indices, exc: Exception) -> None:
    """Hand the lanes ``indices`` back to the event loop because of ``exc``.

    A :class:`LaneFallback` carries its own reason.  Anything else is a
    defect in the vector engines: never a wrong answer, never a dead sweep,
    and -- the reason names the error in provenance -- never a silent one.
    """
    if isinstance(exc, LaneFallback):
        reason = exc.reason
    else:
        reason = f"vector evaluation error: {exc!r}"
    for i in indices:
        outcomes[i] = LaneOutcome(fallback=reason)


def run_lanes(scenarios) -> list:
    """Evaluate single-replication scenarios on the vector kernel, as lanes.

    Every scenario must already have passed
    :func:`repro.sim.kernel.kernel_ineligibility` (metrics level); lanes
    sharing a family (same params/attack/modes/rounds, different seeds) run
    in lockstep off one static layout, whether they are one scenario's
    replications or a chunk's cells (each lane samples messages at its own
    rate).  Returns one :class:`LaneOutcome` per scenario, in order: either
    a finalized :class:`~repro.sim.recorder.OnlineMetricsSummary`
    float-identical to the event loop's, or a ``fallback`` reason for the
    caller to re-run that lane on the event loop (a falling-back lane never
    touches a recorder, so no partial observation leaks).
    """
    scenarios = list(scenarios)
    np = numpy_or_none()
    if np is None:
        return [
            LaneOutcome(fallback="numpy is not installed") for _ in scenarios
        ]
    outcomes: list = [None] * len(scenarios)
    groups: dict = {}
    for i, sc in enumerate(scenarios):
        groups.setdefault(_layout_key(sc), []).append(i)
    for key, indices in groups.items():
        group = [scenarios[i] for i in indices]
        try:  # the group's setup: layout, and for a lockstep block Phase 1
            layout = _layout_for(key, group[0], np)
            if layout.lockstep:
                offsets = [_lane_offsets_list(layout, sc) for sc in group]
                drift = (
                    _DriftTables(layout, group)
                    if layout.clock_mode == "random" else None
                )
                obs.inc("kernel.blocks")  # fill = kernel.vector_lanes / kernel.blocks
                with obs.span("kernel.phase1") as sp:
                    sp.set("lanes", len(group))
                    lane_rounds = _phase1(layout, group, offsets, drift)
        except Exception as exc:
            _refuse(outcomes, indices, exc)
            continue
        for pos, i in enumerate(indices):
            try:  # one lane: Phase 2 of the block, or its own exact replay
                if layout.lockstep:
                    rounds = next(lane_rounds)  # or the lane's LaneFallback, raised
                    with obs.span("kernel.phase2") as sp:
                        sp.set("lane", i)
                        outcomes[i] = _LaneAssembly(
                            layout, rounds, offsets[pos],
                            drift.clocks[pos] if drift is not None else None,
                            group[pos].sample_messages,
                        ).run()
                else:
                    # Echo, uniform/min delays, and randomized attacks run
                    # per lane on the exact-replay engine (no cross-lane
                    # lockstep arrays).
                    with obs.span("kernel.replay") as sp:
                        sp.set("lane", i)
                        replay = _ExactReplay(layout, group[pos])
                        outcomes[i] = replay.run()
                        sp.set("events", replay.events)
                        sp.set("pruned", replay.pruned)
            except Exception as exc:
                _refuse(outcomes, [i], exc)
    return outcomes


def _lane_offsets_list(layout: _Layout, scenario) -> list:
    return honest_offsets(
        layout.h, scenario.params.initial_offset_spread, scenario.seed
    )
