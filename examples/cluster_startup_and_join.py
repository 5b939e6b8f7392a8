#!/usr/bin/env python3
"""Operational lifecycle: cold start, steady state, and a node joining later.

Scenario: a 7-node cluster boots over a 100 ms window with unsynchronized
clocks (start-up protocol), runs for a few resynchronization rounds under an
active adversary, and at t = 3.3 s an eighth node comes up and integrates into
the running system.  The example prints the full timeline of
resynchronizations and verifies the start-up and join latency bounds.

Run with:  python examples/cluster_startup_and_join.py
"""

from __future__ import annotations

from repro import Scenario, params_for, run_scenario
from repro.analysis import metrics
from repro.analysis.report import Table
from repro.core.bounds import precision_bound
from repro.core.join import join_latency_bound
from repro.core.startup import startup_completion_bound


def main() -> None:
    boot_spread = 0.1
    join_at = 3.3
    params = params_for(7, authenticated=True, rho=1e-4, tdel=0.01, period=1.0,
                        initial_offset_spread=0.05)
    scenario = Scenario(
        params=params,
        algorithm="auth",
        attack="eager",
        rounds=6,
        clock_mode="extreme",
        delay_mode="uniform",
        use_startup=True,
        boot_spread=boot_spread,
        joiner_count=1,
        join_time=join_at,
        seed=8,
    )
    # The timeline and the members-only queries read history: ask for the trace.
    result = run_scenario(scenario, check_guarantees=False, trace_level="full")
    trace = result.trace

    # Timeline of resynchronizations.
    timeline = Table(
        title="Resynchronization timeline (time in seconds, one column per process)",
        headers=["round"] + [f"p{pid}" for pid in trace.honest_pids()],
        precision=6,
    )
    rounds = sorted({e.round for p in trace.honest() for e in p.resyncs})
    for round_ in rounds:
        row: list[object] = [round_]
        for pid in trace.honest_pids():
            events = [e.time for e in trace.processes[pid].resyncs if e.round == round_]
            row.append(events[0] if events else "-")
        timeline.add_row(*row)
    print(timeline.render())
    print()

    # Start-up and join guarantees.  The start-up metrics are computed over
    # the original members only (the joiner is not part of the cold start).
    members = scenario.honest_pids
    summary = Table(title="Lifecycle guarantees", headers=["quantity", "measured", "bound", "holds"])
    synced_by = metrics.steady_state_start(trace, pids=members)
    startup_bound = startup_completion_bound(params, boot_spread, "auth")
    summary.add_row("all members synchronized by (s)", synced_by, startup_bound, synced_by <= startup_bound)

    settled_skew = metrics.skew_after_round(trace, 1, pids=members)
    settled_skew = float("inf") if settled_skew is None else settled_skew
    skew_bound = precision_bound(params, "auth")
    summary.add_row("member skew after first full round (s)", settled_skew, skew_bound, settled_skew <= skew_bound)

    joiner_pid = scenario.joiner_pids[0]
    (latency,) = result.join_latencies
    latency_bound = join_latency_bound(params, "auth")
    summary.add_row("join latency of p7 (s)", latency, latency_bound, latency <= latency_bound)

    joined_skew = metrics.max_skew(trace, t_start=trace.processes[joiner_pid].resyncs[0].time)
    summary.add_row("skew including the joiner (s)", joined_skew, skew_bound, joined_skew <= skew_bound)
    print(summary.render())


if __name__ == "__main__":
    main()
