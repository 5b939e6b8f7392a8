"""One array fold of a block of served vector lanes into their summaries.

Both vector engines hand each served lane over as a
:class:`~repro.sim.vectorized._LaneRecord` -- its acceptance emissions,
clocks and message tally -- and :func:`~repro.sim.vectorized.run_lanes`
folds all records of a layout group here in one call, instead of feeding
each acceptance to an :class:`~repro.sim.recorder.OnlineMetricsRecorder`
(:func:`~repro.sim.vectorized._finalize_lane`, the finalizer of small
fixed-rate lockstep blocks and this module's reference).  ``docs/kernel.md``
("The block fold") gives the layout of the points and "When a block
folds" the rule; ``tests/test_replay_fold.py`` pins every summary field's
``repr`` to the recorder feed.  NumPy comes in as ``layout.np``;
:func:`~repro.sim.vectorized.run_lanes` imports this module only when a
block folds, so a process that serves only the event loop or small
fixed-rate lockstep blocks never loads it.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

from .recorder import OnlineMetricsSummary
from .vectorized import LaneFallback


def _clock_reader(layout, records) -> tuple:
    """``(read, breakpoints)`` of a block's honest clocks.

    ``read(lanes, t)`` is the ``(M, h)`` array of every honest clock of lane
    ``lanes[i]`` at ``t[i]``, float for float: ``FixedRateClock.read``
    (``offset + rate * t``) at fixed rates, ``PiecewiseLinearClock.read``
    (``_DriftTables.read``'s segment selection) on drifting clocks, whose
    rate changes -- shared by every lane -- are the ``breakpoints``.
    """
    np = layout.np
    if records[0].clocks is None:
        offsets = np.array([record.offsets for record in records])
        rates = np.array(layout.honest_rates)
        return (lambda lanes, t: offsets[lanes] + rates * t[:, None]), ()
    starts = records[0].clocks[0]._starts
    if any(clock._starts != starts for record in records for clock in record.clocks):
        raise LaneFallback("drifting-clock segment boundaries are not lane-uniform")
    S = np.array(starts)
    values = np.array([[clock._values for clock in record.clocks] for record in records])
    rates = np.array([[clock._rates for clock in record.clocks] for record in records])
    cols = np.arange(layout.h)

    def read(lanes, t):
        # t <= 0 -> offset, else segment i = bisect_right(starts, t) - 1,
        # values[i] + rates[i] * (t - starts[i]).
        i = np.maximum(np.searchsorted(S, t, side="right") - 1, 0)
        seg = (lanes[:, None], cols, i[:, None])
        return np.where(
            t[:, None] <= 0.0, values[lanes, :, 0],
            values[seg] + rates[seg] * (t - S[i])[:, None],
        )

    return read, starts[1:]


def _timeline(np, read, breakpoints, lane, em, end, h) -> SimpleNamespace:
    """A block's honest clocks at every point the recorder evaluates them.

    Instants (runs of equal times within a lane) are in lane-major time
    order (``inst_t``, ``inst_lane``); ``left`` / ``right`` are the
    ``(instant, pid)`` values just before / after each settled.  Probes
    (``probe_t``, ``probe_lane``, ``probe``) are ``L`` points at ``t = 0``,
    then every clock breakpoint up to its lane's end, then the ``L`` ends,
    each under the adjustments of the last instant at or before it.
    ``(own_inst, own_pid)`` are the pids each instant adjusted.
    """
    L = len(end)
    t, pid = em[:, 0], em[:, 1].astype(np.intp)
    new = np.ones(len(t), dtype=bool)
    new[1:] = (lane[1:] != lane[:-1]) | (t[1:] != t[:-1])
    # Rows: per lane a base row (no adjustment yet), then one per instant.
    row = np.cumsum(new) + lane
    inst = row[new]
    inst_t, inst_lane = t[new], lane[new]
    row_lane = np.repeat(np.arange(L), np.bincount(inst_lane, minlength=L) + 1)
    NR = len(row_lane)
    # The adjustment in force: the last emission per (row, pid), forward-filled.
    own, rev = np.unique((row * h + pid)[::-1], return_index=True)
    adj = np.zeros((NR, h))
    adj.flat[own] = em[len(t) - 1 - rev, 4]
    has = np.zeros((NR, h), dtype=bool)
    has.flat[own] = True
    has[np.flatnonzero(np.diff(row_lane, prepend=-1))] = True  # base rows
    src = np.maximum.accumulate(np.where(has, np.arange(NR)[:, None], 0), axis=0)
    adj = np.take_along_axis(adj, src, axis=0)
    reading = read(inst_lane, inst_t)

    bp = np.array(breakpoints, dtype=float)
    on = bp[None, :] <= end[:, None]
    probe_lane = np.concatenate([np.arange(L), np.nonzero(on)[0], np.arange(L)])
    probe_t = np.concatenate([np.zeros(L), np.broadcast_to(bp, on.shape)[on], end])
    # The last row at or before each probe: (lane, time rank) keys are
    # exact integers, and the rows' keys ascend.  (A sort, not np.unique,
    # which loads numpy.ma for float input: ~1.2 MB at the first fold.)
    row_t = np.full(NR, -np.inf)
    row_t[inst] = inst_t
    ranks = np.sort(np.concatenate([row_t, probe_t]))
    M = len(ranks)
    at = np.searchsorted(
        row_lane * M + np.searchsorted(ranks, row_t),
        probe_lane * M + np.searchsorted(ranks, probe_t), side="right",
    ) - 1
    own_row = own // h
    return SimpleNamespace(
        inst_t=inst_t, inst_lane=inst_lane, left=reading + adj[inst - 1], right=reading + adj[inst],
        probe_t=probe_t, probe_lane=probe_lane, probe=read(probe_lane, probe_t) + adj[at],
        own_inst=own_row - row_lane[own_row] - 1, own_pid=own % h,
    )


def _resyncs(np, lane, em, L, h) -> SimpleNamespace:
    """A block's resync scalars: ``(L,)`` arrays per lane, ``(L * h,)`` per pid.

    ``steady`` / ``settled`` are the windows' starts (``inf`` where never
    reached), ``adjusts`` whether any pid resynchronized twice, and
    ``first_gap`` is 0 for a pid with none.
    """
    t, before, tgt = em[:, 0], em[:, 3], em[:, 5]
    rnd = em[:, 2].astype(np.intp)
    E = len(t)
    # Each pid's resyncs in order.
    owner = lane * h + em[:, 1].astype(np.intp)
    order = np.argsort(owner, kind="stable")
    o, ot, orn = owner[order], t[order], rnd[order]
    ol = o // h
    head = np.ones(E, dtype=bool)
    head[1:] = o[1:] != o[:-1]
    tail = np.ones(E, dtype=bool)
    tail[:-1] = head[1:]
    nth = np.arange(E) - np.maximum.accumulate(np.where(head, np.arange(E), 0))
    synced = np.zeros(L * h, dtype=bool)
    synced[o[head]] = True
    first_t = np.zeros(L * h)
    first_t[o[head]] = ot[head]
    first_r = np.zeros(L * h, dtype=np.intp)
    first_r[o[head]] = orn[head]
    last_r = np.zeros(L * h, dtype=np.intp)
    last_r[o[tail]] = orn[tail]
    steady = np.where(synced.reshape(L, h).all(axis=1), first_t.reshape(L, h).max(axis=1), np.inf)
    one = rnd == 1
    settled = np.full(L, -np.inf)
    np.maximum.at(settled, lane[one], t[one])
    settled = np.where(np.bincount(lane[one], minlength=L) == h, settled, np.inf)

    # Periods count from the 3rd resync on; gaps and adjustments from the 2nd.
    third = np.flatnonzero(nth >= 2)
    interval = ot[third] - ot[third - 1]
    period_min = np.full(L, np.inf)
    np.minimum.at(period_min, ol[third], interval)
    period_max = np.zeros(L)
    np.maximum.at(period_max, ol[third], interval)
    second = np.flatnonzero(nth >= 1)
    jump = second[orn[second] > orn[second - 1] + 1]
    gapped, first_jump = np.unique(o[jump], return_index=True)
    first_gap = np.zeros(L * h, dtype=np.intp)
    first_gap[gapped] = orn[jump[first_jump] - 1] + 1
    change = (tgt - before)[order][second]
    max_adjustment = np.zeros(L)
    np.maximum.at(max_adjustment, ol[second], np.abs(change))
    max_backward = np.zeros(L)  # +0.0 where nothing moved back, never -0.0
    np.maximum.at(max_backward, ol[second], np.where(change < 0.0, -change, 0.0))

    # Acceptance spread over the rounds every honest pid accepted.
    width = int(rnd.max()) + 1
    key = lane * width + rnd
    lo = np.full(L * width, np.inf)
    np.minimum.at(lo, key, t)
    hi = np.full(L * width, -np.inf)
    np.maximum.at(hi, key, t)
    full = np.bincount(key, minlength=L * width) == h
    spread = np.where(full, hi - lo, 0.0).reshape(L, width).max(axis=1)
    return SimpleNamespace(
        steady=steady, settled=settled, period_min=period_min, period_max=period_max,
        period_count=np.bincount(ol[third], minlength=L), max_adjustment=max_adjustment,
        adjusts=np.bincount(ol[second], minlength=L) > 0, max_backward=max_backward, spread=spread,
        synced=synced, first_t=first_t, first_r=first_r, last_r=last_r, first_gap=first_gap,
    )


def _envelopes(np, params, tl, steady, win, end, h) -> dict:
    """``{lane: (rates, envelope, worst_offset, window_samples)}`` for the ``win`` lanes.

    Each pid's samples, in the recorder's order: the steady pair, a
    left/right pair at each of its own later instants, its breakpoints
    from the steady start on (after an instant's pair at an equal time),
    the end.  Drawdown and run-up are running extremes over them.
    """
    L = len(end)
    W = np.flatnonzero(win)
    nW = len(W)
    at_steady = np.flatnonzero(win[tl.inst_lane] & (tl.inst_t == steady[tl.inst_lane]))
    own_lane = tl.inst_lane[tl.own_inst]
    own = win[own_lane] & (tl.inst_t[tl.own_inst] > steady[own_lane])
    own_inst, own_lane, own_pid = tl.own_inst[own], own_lane[own], tl.own_pid[own]
    bp = np.arange(L, len(tl.probe_t) - L)
    bp = bp[win[tl.probe_lane[bp]] & (tl.probe_t[bp] >= steady[tl.probe_lane[bp]])]
    ends = len(tl.probe_t) - L + W
    pids = np.tile(np.arange(h), nW)
    lanes = np.repeat(W, h)
    s_lane = np.concatenate([lanes, lanes, own_lane, own_lane, np.repeat(tl.probe_lane[bp], h), lanes])
    s_pid = np.concatenate([pids, pids, own_pid, own_pid, np.tile(np.arange(h), len(bp)), pids])
    s_t = np.concatenate([
        np.repeat(steady[W], h), np.repeat(steady[W], h), tl.inst_t[own_inst],
        tl.inst_t[own_inst], np.repeat(tl.probe_t[bp], h), np.repeat(end[W], h),
    ])
    # Order at equal times: left, right, breakpoint, end.
    s_sub = np.repeat([0, 1, 0, 1, 2, 3], [nW * h, nW * h, len(own_pid), len(own_pid), len(bp) * h, nW * h])
    value_at_steady = tl.right[at_steady]
    s_v = np.concatenate([
        tl.left[at_steady].ravel(), value_at_steady.ravel(), tl.left[own_inst, own_pid],
        tl.right[own_inst, own_pid], tl.probe[bp].ravel(), tl.probe[ends].ravel(),
    ])
    by = np.lexsort((s_sub, s_t, s_pid, s_lane))
    s_t, s_v = s_t[by], s_v[by]
    col = (np.cumsum(win) - 1)[s_lane[by]] * h + s_pid[by]
    counts = np.bincount(col, minlength=nW * h)
    starts = np.cumsum(counts) - counts
    pos = np.arange(len(col)) - starts[col]
    valid = np.arange(counts.max())[:, None] < counts
    g = np.full(valid.shape, -np.inf)
    g[pos, col] = s_v - params.min_rate * s_t
    drawdown = np.where(valid, np.maximum.accumulate(g, axis=0) - g, 0.0).max(axis=0)
    r = np.full(valid.shape, np.inf)
    r[pos, col] = s_v - params.max_rate * s_t
    rise = np.where(valid, r - np.minimum.accumulate(r, axis=0), 0.0).max(axis=0)
    worst = np.zeros(L)
    np.maximum.at(worst, s_lane[by], np.abs(s_v - s_t))
    rate = (tl.probe[ends] - value_at_steady) / (end[W] - steady[W])[:, None]

    win_t, win_v = s_t.tolist(), s_v.tolist()
    cuts = list(zip(starts.tolist(), (starts + counts).tolist()))
    lanes = zip(
        W.tolist(),
        zip(rate.min(axis=1).tolist(), rate.max(axis=1).tolist()),
        zip(drawdown.reshape(nW, h).max(axis=1).tolist(), rise.reshape(nW, h).max(axis=1).tolist()),
        worst[W].tolist(),
        rate.tolist(),
    )
    out = {}
    for w, (l, rates, envelope, worst_offset, pid_rates) in enumerate(lanes):
        samples = tuple(
            (tuple(win_t[a:b]), tuple(win_v[a:b]), pid_rate)
            for (a, b), pid_rate in zip(cuts[w * h:(w + 1) * h], pid_rates)
        )
        out[l] = (rates, envelope, worst_offset, samples)
    return out


def fold_lanes(layout, records) -> list:
    """The summaries of a block's served lanes, in one array fold.

    Every field is the one the recorder feed
    (:func:`~repro.sim.vectorized._finalize_lane`) reports, ``repr`` for
    ``repr`` (``tests/test_replay_fold.py``).  The recorder evaluates skew
    at breakpoints as they stream past; here the same points are laid out
    at once, all lanes' emissions concatenated under a lane index
    (:func:`_timeline`).  Skew is noted on the left of every
    instant at ``t > 0`` (strict: it never counts at a window's start), on
    its right, and at every probe.  The steady window opens at the emission
    that completes every pid's first resync, the settled one at the
    ``h``-th round-1 acceptance (:func:`_resyncs`).  Everything is
    returned as Python values (``tolist``), never NumPy scalars: result
    digests hash their ``repr``.
    """
    np = layout.np
    h = layout.h
    L = len(records)
    read, breakpoints = _clock_reader(layout, records)
    em = np.array([e for record in records for e in record.emissions], dtype=float)
    lane = np.repeat(np.arange(L), [len(record.emissions) for record in records])
    end = np.array([record.end for record in records])
    tl = _timeline(np, read, breakpoints, lane, em, end, h)
    rs = _resyncs(np, lane, em, L, h)

    inner = tl.inst_t > 0.0
    note_lane = np.concatenate([tl.inst_lane[inner], tl.inst_lane, tl.probe_lane])
    note_t = np.concatenate([tl.inst_t[inner], tl.inst_t, tl.probe_t])
    note_v = np.concatenate([
        v.max(axis=1) - v.min(axis=1) for v in (tl.left[inner], tl.right, tl.probe)
    ])
    strict = np.arange(len(note_t)) < np.count_nonzero(inner)

    def window_max(start):
        s = start[note_lane]
        inside = (note_t > s) | ((note_t == s) & ~strict)
        out = np.zeros(L)
        np.maximum.at(out, note_lane, np.where(inside, note_v, 0.0))
        return out

    overall_skew = np.zeros(L)
    np.maximum.at(overall_skew, note_lane, note_v)
    reached = rs.steady != np.inf
    # Never steady: the window degenerates to the end point.
    steady_skew = np.where(reached, window_max(rs.steady), note_v[-L:])
    win = reached & (end > rs.steady)
    envelopes = _envelopes(np, layout.params, tl, rs.steady, win, end, h) if win.any() else {}

    steady = np.where(reached, rs.steady, end).tolist()
    settled = [
        None if start == math.inf else skew
        for start, skew in zip(rs.settled.tolist(), window_max(rs.settled).tolist())
    ]
    synced, first_t = rs.synced.tolist(), rs.first_t.tolist()
    first_r, last_r, first_gap = rs.first_r.tolist(), rs.last_r.tolist(), rs.first_gap.tolist()
    columns = zip(
        records, steady, steady_skew.tolist(), overall_skew.tolist(), rs.period_min.tolist(),
        rs.period_max.tolist(), rs.period_count.tolist(), rs.spread.tolist(),
        rs.max_adjustment.tolist(), rs.adjusts.tolist(), rs.max_backward.tolist(), settled,
    )
    summaries = []
    for l, (record, start, steady_v, overall_v, pmin, pmax, pcount, spread, madj, adjusts, mback,
            settled_v) in enumerate(columns):
        ids = range(l * h, (l + 1) * h)
        (slowest, fastest), (envelope_a, envelope_b), worst, entries = envelopes.get(
            l, ((None, None), (None, None), None, ())
        )
        last = [last_r[i] for i in ids]
        summaries.append(OnlineMetricsSummary(
            end_time=record.end,
            steady_start=start,
            steady_skew=steady_v,
            overall_skew=overall_v,
            period_min=pmin,
            period_max=pmax,
            period_count=pcount,
            acceptance_spread=spread,
            max_adjustment=madj if adjusts else None,
            max_backward_adjustment=mback,
            completed_round=min(last),
            max_round=max(last),
            liveness_triples=tuple(
                (first_r[i], last_r[i], first_gap[i] or None) if synced[i] else None for i in ids
            ),
            slowest_long_run_rate=slowest,
            fastest_long_run_rate=fastest,
            slowest_window_rate=None,  # derived by compact()
            fastest_window_rate=None,
            envelope_a=envelope_a,
            envelope_b=envelope_b,
            worst_offset_from_real_time=worst,
            total_messages=record.total,
            message_stats=dict(record.by_type),
            window_samples=entries,
            message_samples=None if record.samples is None else tuple(record.samples),
            settled_skew=settled_v,
            first_resync_times=tuple(first_t[i] if synced[i] else None for i in ids),
        ))
    return summaries
