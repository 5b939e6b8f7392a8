"""Tests for the experiment runners, their qualitative results, and the public API."""

from __future__ import annotations


import repro
from repro.analysis.report import Table
from repro.experiments import EXPERIMENTS
from repro.experiments.common import set_observer
from repro.sim.kernel import kernel_ineligibility


def run_tables(exp_id):
    tables = EXPERIMENTS[exp_id].run(quick=True)
    assert tables and all(isinstance(t, Table) for t in tables)
    assert all(t.rows for t in tables)
    return tables


def test_registry_covers_e1_to_e15():
    assert set(EXPERIMENTS) == {f"E{i}" for i in range(1, 16)}
    for experiment in EXPERIMENTS.values():
        assert experiment.claim


def test_e_grid_vector_eligibility_coverage():
    """E1-E13 at quick size evaluate 70 cells, 45 of them statically vector-eligible.

    A whitelist edit that silently shrinks (or widens) the kernel's reach over
    the reproduced tables moves this count; needs no numpy (static verdicts).
    """
    observed = []
    set_observer(lambda result: observed.append((result.scenario, result.trace_level)))
    try:
        for index in range(1, 14):
            EXPERIMENTS[f"E{index}"].run(quick=True)
    finally:
        set_observer(None)
    eligible = [cell for cell in observed if kernel_ineligibility(*cell) is None]
    assert (len(observed), len(eligible)) == (70, 45)


def test_e1_precision_within_bound_everywhere():
    (table,) = run_tables("E1")
    assert all(table.column("within bound"))


def test_e2_accuracy_excess_shrinks_with_period_and_max_breaks():
    rate_table, fault_table = run_tables("E2")
    excesses = rate_table.column("measured excess")
    assert excesses[0] >= excesses[-1]
    bounds = rate_table.column("analytic excess")
    assert all(m <= b + 1e-9 for m, b in zip(excesses, bounds))
    rows = {row[0]: row for row in fault_table.rows}
    assert rows["sync_to_max"][3] > 1.0  # precision destroyed by the lying clock
    assert rows["auth"][3] < 0.1
    assert rows["lundelius_welch"][3] < 0.1


def test_e3_and_e4_threshold_tightness():
    for exp_id in ("E3", "E4"):
        (table,) = run_tables(exp_id)
        for row in table.rows:
            assumed_f, actual = row[1], row[2]
            within = row[-1]
            if actual <= assumed_f:
                assert within, f"{exp_id}: in-spec row should hold: {row}"
            else:
                assert not within, f"{exp_id}: out-of-spec row should break: {row}"


def test_e5_periods_within_bounds():
    (table,) = run_tables("E5")
    assert all(table.column("within bounds"))


def test_e6_startup_in_time_and_within_bound():
    (table,) = run_tables("E6")
    assert all(table.column("in time"))
    assert all(table.column("within bound"))


def test_e7_joins_in_time():
    (table,) = run_tables("E7")
    assert all(table.column("joined"))
    assert all(table.column("in time"))


def test_e8_message_complexity_within_bound():
    (table,) = run_tables("E8")
    assert all(table.column("within bound"))
    # O(n^2): messages grow superlinearly with n for each algorithm.
    auth_rows = [row for row in table.rows if row[0] == "auth"]
    assert auth_rows[-1][3] > auth_rows[0][3] * 2


def test_e9_precision_scales_with_tdel():
    tdel_table, drift_table = run_tables("E9")
    skews = tdel_table.column("measured skew")
    tdels = tdel_table.column("tdel")
    assert skews == sorted(skews)
    # Roughly linear: skew/tdel stays within a factor of ~2 across the sweep.
    ratios = [s / t for s, t in zip(skews, tdels)]
    assert max(ratios) <= 2.5 * min(ratios)
    assert all(m <= b for m, b in zip(drift_table.column("measured skew"), drift_table.column("bound Dmax")))


def test_e10_all_guarantees_hold():
    (table,) = run_tables("E10")
    assert all(table.column("all guarantees hold"))


def test_e11_ablation_tables_have_expected_shape():
    alpha_table, monotonic_table = run_tables("E11")
    bounds = alpha_table.column("bound Dmax")
    assert bounds == sorted(bounds)  # larger alpha -> larger bound
    assert all(v == 0.0 for v in monotonic_table.column("max backward adj")[1::2])  # monotonic rows


def test_e12_baseline_comparison_shape():
    (table,) = run_tables("E12")
    rows = {row[0]: row for row in table.rows}
    assert rows["sync_to_max"][2] > 1.0
    assert rows["auth"][2] < 0.05
    assert rows["free_running"][5] == 0  # no messages


def test_run_all_quick_smoke():
    # Only check the registry machinery; individual experiments are covered above.
    from repro.experiments import run_all

    results = run_all(quick=True)
    assert set(results) == set(EXPERIMENTS)


# -- public API ----------------------------------------------------------------------------


def test_public_api_exports():
    for name in repro.__all__:
        assert hasattr(repro, name), f"missing export {name}"
    assert repro.__version__


def test_public_api_quickstart_flow():
    params = repro.params_for(n=5, authenticated=True, rho=1e-4, tdel=0.01, period=1.0)
    bounds = repro.theoretical_bounds(params, repro.AUTH)
    result = repro.run_scenario(repro.Scenario(params=params, algorithm="auth", attack="eager", rounds=4))
    assert result.precision <= bounds.precision
    assert result.guarantees_hold
