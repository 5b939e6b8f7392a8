"""E12 -- Head-to-head comparison with the baseline synchronizers.

For the same model parameters and message budget (one or two broadcasts per
process per period), compare precision, accuracy and message count of:

* the two Srikanth-Toueg variants,
* Lundelius-Welch fault-tolerant averaging,
* Lamport-Melliar-Smith interactive convergence,
* sync-to-max and free-running clocks,

once in a benign setting and once with faulty processes present (silent faults
for the ST algorithms and averaging baselines, an inflated clock source for
sync-to-max, which it cannot tolerate).
"""

from __future__ import annotations

from typing import Optional

from ..analysis.report import Table
from ..workloads.scenarios import Scenario
from .common import default_params, stream_rows


_CASES: list[tuple[str, Optional[str]]] = [
    ("auth", "eager"),
    ("echo", "eager"),
    ("lundelius_welch", "silent"),
    ("lamport_melliar_smith", "silent"),
    ("sync_to_max", "inflated_clock"),
    ("free_running", "silent"),
]


def run_experiment(quick: bool = True) -> Table:
    rounds = 6 if quick else 15
    table = Table(
        title="E12: Srikanth-Toueg vs baselines (n=7, one faulty process)",
        headers=[
            "algorithm",
            "attack",
            "precision",
            "worst |C(t)-t|",
            "fastest rate",
            "messages/round",
        ],
    )
    scenarios = [
        Scenario(
            params=default_params(7, authenticated=(algorithm == "auth"), f=1),
            algorithm=algorithm,
            attack=attack,
            actual_faults=1,
            rounds=rounds,
            clock_mode="random",
            delay_mode="uniform",
            seed=7,
        )
        for algorithm, attack in _CASES
    ]
    def row(index, result):
        algorithm, attack = _CASES[index]
        offset = result.accuracy.worst_offset_from_real_time if result.accuracy else float("nan")
        rate = result.accuracy.fastest_long_run_rate if result.accuracy else float("nan")
        return (algorithm, attack or "none", result.precision, offset, rate, result.messages_per_round)

    table.add_rows(stream_rows(scenarios, row, check_guarantees=False))
    table.add_note("free_running shows the unsynchronized drift floor; sync_to_max is run under the attack it cannot tolerate")
    return table
