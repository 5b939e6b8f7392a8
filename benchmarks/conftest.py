"""Shared helpers for the benchmark harness.

Each benchmark module regenerates one experiment of docs/experiments.md (E1..E15):
it times the experiment runner via pytest-benchmark (a single round -- these
are macro-benchmarks of whole simulation sweeps, not micro-benchmarks) and
prints the resulting table(s) so that the harness output *is* the reproduced
table.  Qualitative expectations (who wins, what breaks, what stays within
bound) are asserted so a silently wrong reproduction fails the harness.
"""

from __future__ import annotations

import os
from typing import Optional

from repro.analysis.report import Table, render_tables
from repro.experiments import EXPERIMENTS

#: ``REPRO_BENCH_QUICK=1`` switches every benchmark to the small quick-mode
#: grids -- the CI smoke job uses this so the qualitative reproduction
#: assertions run on every push without the full-sweep cost.
QUICK_DEFAULT = os.environ.get("REPRO_BENCH_QUICK", "").strip().lower() not in ("", "0", "false", "no", "off")


def run_and_print(benchmark, exp_id: str, quick: Optional[bool] = None) -> list[Table]:
    """Time one experiment once, print its tables, and return them."""
    if quick is None:
        quick = QUICK_DEFAULT
    experiment = EXPERIMENTS[exp_id]
    tables = benchmark.pedantic(experiment.run, args=(quick,), iterations=1, rounds=1)
    if isinstance(tables, Table):
        tables = [tables]
    print()
    print(f"[{exp_id}] {experiment.claim}")
    print(render_tables(tables))
    return tables
