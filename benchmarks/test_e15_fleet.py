"""Benchmark E15: fleet churn never changes results.

The assertion layer over the E15 table -- the bare CLI renders it but
only fails on table-generation errors, so the churn-invariance claim is
gated here (and in ``tests/test_fleet.py``).
"""

from conftest import run_and_print


def test_e15_fleet(benchmark):
    (churn,) = run_and_print(benchmark, "E15")
    assert all(churn.column("completed")), "the sweep must complete despite continuous worker murder"
    assert all(churn.column("== serial")), "fleet churn must not change any measured value"
    assert all(killed >= 2 for killed in churn.column("workers killed")), (
        "the schedule must kill every initial worker at least once"
    )
    assert all(r >= 1 for r in churn.column("respawns")), "recovery must respawn, not just shrink"
