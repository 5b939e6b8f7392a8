#!/usr/bin/env python3
"""Regenerate EXPERIMENTS.md, streaming sections to disk as experiments finish.

Runs E1..E15 in full (non-quick) mode, renders their tables as markdown, and
prepends the per-experiment commentary (paper claim, expected shape, what to
look for).  The captured tables in EXPERIMENTS.md are therefore exactly what
``pytest benchmarks/ --benchmark-only`` prints.

The report is written *incrementally*: every finished experiment's section is
flushed to the output file immediately (with an in-progress marker while
later experiments still run), so a long full regeneration can be inspected --
or resumed from its cache -- midway.  Each section carries a provenance
footer gathered from the results that flowed through the experiment --
effective horizons (the runs' actual end times: each stops when its target
round completes), replication/shard plans of sharded runs, early stops, and
the result cache's hit/miss counters for the section.

Sweeps execute through the shared runner subsystem: ``--jobs N`` spreads the
grid points (and the shard tasks of replicated scenarios) across worker
processes, and the on-disk result cache makes repeated regeneration (e.g.
after editing only the commentary) nearly free -- disable it with
``--no-cache`` after changing simulation code mid-edit if you do not trust
the automatic code-salt invalidation.

Usage:  python scripts/generate_experiments_report.py [output_path]
                [--jobs N] [--no-cache] [--cache-dir DIR]
"""

from __future__ import annotations

import argparse
import time
from pathlib import Path
from typing import Optional

from repro.cli import _nonnegative_int
from repro.experiments import EXPERIMENTS, common as experiments_common
from repro.runner.config import configure as configure_runner

HEADER = """\
# EXPERIMENTS — paper claims vs measured results

Target paper: **"Optimal Clock Synchronization"**, T. K. Srikanth and Sam Toueg,
PODC 1985 (journal version JACM 34(3), 1987).  The PODC'85 paper is a theory
paper: its evaluation consists of theorems (agreement/precision, optimal
accuracy, resilience bounds, start-up and integration) and complexity claims
rather than measured tables, so — per the reproduction rules — every claim is
turned into a measurable experiment.  The mapping from claims to experiments,
workloads and modules is in docs/experiments.md; this file records the
measured outcome of each experiment and how it compares to the paper's claim.

Absolute numbers depend on the simulated model parameters (defaults:
`rho = 1e-4`, `tdel = 10 ms`, `P = 1 s`, worst-case `f`); what is reproduced is
the *shape* of every claim: what is bounded by what, who tolerates which
faults, where the thresholds are tight, and how quantities scale.

All tables below are regenerated by `pytest benchmarks/ --benchmark-only`
(quick=False runners) or `python scripts/generate_experiments_report.py`.

"""

COMMENTARY = {
    "E1": """**Paper claim.** Agreement: with up to `f = ⌈n/2⌉−1` Byzantine processes,
the skew between correct logical clocks is bounded (by a constant `Dmax`
independent of time) — PODC'85 Theorem for the authenticated algorithm.

**Measured.** Worst-case skew (exact, over all logical-clock breakpoints,
adversarial clock rates + targeted delays + active attacks) stays below the
re-derived `Dmax` for every system size and attack; typical measured skew is
2–4× below the bound, and the bound is dominated by the `tdel` term, as in
the paper (`Dmax = O(tdel + rho·P)`).""",
    "E2": """**Paper claim.** Optimal accuracy: synchronized clocks drift from real time
no faster than the hardware envelope, up to additive constants; fault
tolerance costs nothing in rate.

**Measured.** (a) The long-run logical clock rate stays within the analytic
rate window `[P/β_max, P/β_min]`, whose excess over the hardware bound
`(1+rho)` shrinks as `O(tdel/P)` — the measured excess falls with the period
exactly as predicted and is independent of `f` and `n`.  (b) The accuracy is
*fault-tolerant*: a single Byzantine process advertising an inflated clock has
no measurable effect on either Srikanth-Toueg variant (or on the fault-tolerant
baselines), while naive sync-to-max is dragged ~150 s away from real time.""",
    "E3": """**Paper claim.** The `n > 2f` resilience of the authenticated algorithm is
optimal (tight).

**Measured.** At `f = ⌈n/2⌉−1` every guarantee holds under the strongest
tolerated attack; with one additional colluding signer (`f+1` faulty) the
cabal forges acceptance proofs and drives the skew 3 orders of magnitude past
the bound — the threshold is tight in both directions.""",
    "E4": """**Paper claim.** Without authentication the resilience bound is `n > 3f`
(also tight).

**Measured.** Same shape as E3 for the echo variant: in-spec runs stay within
the (larger, `2·tdel`-based) bound; `f+1` colluding echoers start echo
avalanches without honest inits and break the bound or stall liveness.""",
    "E5": """**Paper claim.** Resynchronizations happen regularly: the real time between
consecutive resynchronizations of a correct process lies in a bounded window.

**Measured.** Every observed interval lies inside `[beta_min, beta_max]` for
both variants across drift rates; the window is ~±2% of `P` at `rho = 1e-3`.""",
    "E6": """**Paper claim.** Initialization: the system reaches a synchronized state
from scratch (processes boot at different times with unsynchronized clocks).

**Measured.** All correct processes synchronize within the start-up completion
bound (worst path: a late booter misses round 0 and joins at round 1), and
from the first full round on the ordinary precision bound holds.""",
    "E7": """**Paper claim.** Integration: a new or recovered process joins the running
system within a bounded time, without any trusted helper.

**Measured.** A passive joiner synchronizes within one resynchronization
interval plus the acceptance latency at every tested join time, for both
variants, and obeys the precision bound from its first acceptance on.""",
    "E8": """**Paper claim.** Message complexity: two broadcasts per correct process per
round, i.e. `O(n^2)` messages per resynchronization.

**Measured.** Measured messages per completed round are at most
`2·(n−f)·(n−1)` (the bound is met exactly when every process both announces
and relays/echoes) and grow quadratically with `n`.""",
    "E9": """**Paper claim.** The achievable precision is governed by the delay bound and
the drift accumulated per period — `O(tdel + rho·P)`.

**Measured.** Skew grows linearly in `tdel` (ratio skew/tdel stays ~2 across a
10× sweep, slightly above the delay-uncertainty floor) and increases with
`rho·P`; the analytic bound tracks the same shape.""",
    "E10": """**Paper claim.** The guarantees hold for *any* behaviour of up to `f`
Byzantine processes.

**Measured.** Every implemented attack within the threshold (silence, crashes,
early/eager support, two-faced sends, forged-signature flooding, replay, and
the combined skew-maximizer) leaves all guarantees intact for both variants.""",
    "E11": """**Paper claim / design choices.** The adjustment constant `alpha = (1+rho)·tdel`
compensates the message delay; clocks can be made never to run backwards.

**Measured.** Larger `alpha` inflates both the analytic and the measured skew
and the rate excess (so the paper's choice is the right operating point);
the monotonic variant never steps back while keeping the measured precision
essentially unchanged.""",
    "E12": """**Context.** Head-to-head with the classic alternatives under an equal
message budget and one faulty process.

**Measured.** The Srikanth-Toueg variants and the fault-tolerant averaging
baselines all keep millisecond-level precision; sync-to-max collapses under a
single lying clock; free-running clocks show the drift floor.  The ST
algorithms are the only ones that combine Byzantine tolerance above `n/3`
(auth variant) with hardware-envelope accuracy.""",
    "E13": """**System claim.** The paper's claims are per-configuration statistics over
many independent executions; the sharded backend computes them by splitting
the replication axis across worker processes and folding per-shard summaries
through an exact merge algebra (max-combined worst cases, min-combined
completed rounds, summed message counts, a re-run of the exact window-rate
hull pass over the union of retained samples).

**Measured.** Every statistic of a replicated configuration is
float-for-float identical across shard plans (1, 2 and 4 shards of the same
replications); only the provenance (`shard_count`, per-shard horizons)
records how the work was split.  Worst-case statistics tighten monotonically
as replications grow -- the quantity a single seeded run cannot measure.""",
    "E14": """**System claim.** Scenarios are pure functions of their declarative
description, so the distributed execution subsystem -- pluggable executor
backends behind the sweep runner, with a fault-tolerant scheduler
(heartbeats, bounded retries with worker exclusion, one pending queue) over a
length-prefixed pickle wire protocol -- cannot change any measured value.

**Measured.** The same sweep produces float-for-float identical results on
the serial path, the in-process pool and the subprocess wire backend at one
and two workers; killing a worker with SIGKILL mid-sweep costs only time --
the lost chunks are retried on the surviving worker and every measured value
still matches the serial path exactly.""",
    "E15": """**System claim.** The self-healing fleet scheduler survives churn: a
scripted chaos schedule SIGKILLs every initial worker mid-sweep, lost workers
respawn after backoff, the chunk each was running goes back to the front of
the pending queue, and a replacement takes the oldest pending chunk at its
handshake.

**Measured.** The sweep still completes float-for-float identical to the
serial path (E15a); the scheduler counters (workers lost, respawns, rejoins,
chunk retries) are reported in the table.""",
}


class ProvenanceCollector:
    """Aggregates per-section provenance from the results flowing through an experiment."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.runs = 0
        self.replicated_runs = 0
        self.stopped_early = 0
        self.shard_plans: dict[int, int] = {}
        self.horizon_min: Optional[float] = None
        self.horizon_max: Optional[float] = None

    def add(self, result) -> None:
        self.runs += 1
        if result.stopped_early:
            self.stopped_early += 1
        if result.scenario.replications > 1:
            self.replicated_runs += 1
            self.shard_plans[result.shard_count] = self.shard_plans.get(result.shard_count, 0) + 1
        horizon = result.effective_horizon
        if horizon is not None:
            self.horizon_min = horizon if self.horizon_min is None else min(self.horizon_min, horizon)
            self.horizon_max = horizon if self.horizon_max is None else max(self.horizon_max, horizon)

    def describe(self, cache_hits: int, cache_misses: int, cache_enabled: bool) -> str:
        parts = [f"{self.runs} runs"]
        if self.replicated_runs:
            plans = ", ".join(
                f"{count}x{shards} shards" for shards, count in sorted(self.shard_plans.items())
            )
            parts.append(f"{self.replicated_runs} replicated ({plans})")
        if self.stopped_early:
            parts.append(f"{self.stopped_early} stopped early (adaptive horizon)")
        if self.horizon_min is not None:
            parts.append(f"effective horizons {self.horizon_min:.3g}-{self.horizon_max:.3g} s")
        if cache_enabled:
            parts.append(f"cache {cache_hits} hits / {cache_misses} misses (schema v4)")
        else:
            parts.append("cache disabled")
        return "_Provenance: " + "; ".join(parts) + "._"


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument(
        "output",
        nargs="?",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "EXPERIMENTS.md",
        help="where to write the report (default: EXPERIMENTS.md at the repo root)",
    )
    parser.add_argument(
        "--jobs",
        type=_nonnegative_int,
        default=None,
        help="worker processes (0 = one per CPU; default: REPRO_JOBS or 1)",
    )
    parser.add_argument("--no-cache", action="store_true", dest="no_cache", help="recompute every scenario")
    parser.add_argument("--cache-dir", default=None, dest="cache_dir", help="result cache location")
    return parser.parse_args()


def main() -> None:
    args = parse_args()
    runner = configure_runner(
        jobs=args.jobs,
        use_cache=False if args.no_cache else None,
        cache_dir=args.cache_dir,
    )
    cache = runner.cache
    output = args.output
    parts = [HEADER]
    total_start = time.time()
    collector = ProvenanceCollector()
    experiments_common.set_observer(collector.add)
    try:
        for exp_id, experiment in EXPERIMENTS.items():
            collector.reset()
            hits = cache.stats.hits if cache is not None else 0
            misses = cache.stats.misses if cache is not None else 0
            start = time.time()
            tables = experiment.run(quick=False)
            elapsed = time.time() - start
            parts.append(f"## {exp_id}: {experiment.claim}\n")
            parts.append(COMMENTARY[exp_id].strip() + "\n")
            for table in tables:
                parts.append(table.to_markdown() + "\n")
            parts.append(
                collector.describe(
                    cache_hits=(cache.stats.hits - hits) if cache is not None else 0,
                    cache_misses=(cache.stats.misses - misses) if cache is not None else 0,
                    cache_enabled=cache is not None,
                )
                + "\n"
            )
            parts.append(f"_(regenerated in {elapsed:.1f} s by `benchmarks/test_{exp_id.lower().replace('e', 'e0') if len(exp_id) == 2 else exp_id.lower()}_*.py`)_\n")
            # Stream the finished section to disk: a long regeneration is
            # inspectable (and its cache warm) while later experiments run.
            output.write_text(
                "\n".join(parts) + f"\n\n_(report in progress: {exp_id} done)_\n",
                encoding="utf-8",
            )
            print(f"  [{exp_id}] written after {elapsed:.1f} s")
    finally:
        experiments_common.set_observer(None)
    cache_note = (
        f"cache: {cache.stats.hits} hits / {cache.stats.misses} misses" if cache is not None else "cache disabled"
    )
    parts.append(
        f"\n---\n\nFull regeneration time: {time.time() - total_start:.1f} s "
        f"(jobs={runner.jobs}, pure-Python simulation; {cache_note}).\n"
    )
    output.write_text("\n".join(parts), encoding="utf-8")
    print(f"wrote {output} ({cache_note})")


if __name__ == "__main__":
    main()
