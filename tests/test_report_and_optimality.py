"""Unit tests for the table formatter and the guarantee checker."""

from __future__ import annotations

import pytest

from repro.analysis.optimality import GuaranteeCheck
from repro.analysis.report import Table, render_tables
from repro.core.params import params_for
from repro.sim.clocks import FixedRateClock
from repro.sim.trace import ResyncEvent, Trace

from oracle import verify_guarantees


# -- Table --------------------------------------------------------------------------


def test_table_render_contains_title_headers_and_rows():
    table = Table(title="Demo", headers=["a", "b"])
    table.add_row(1, 2.34567)
    table.add_row("x", True)
    text = table.render()
    assert "Demo" in text
    assert "a" in text and "b" in text
    assert "2.3457" in text
    assert "yes" in text


def test_table_rejects_wrong_row_length():
    table = Table(title="t", headers=["a", "b"])
    with pytest.raises(ValueError):
        table.add_row(1)


def test_table_column_access():
    table = Table(title="t", headers=["a", "b"])
    table.add_row(1, 2)
    table.add_row(3, 4)
    assert table.column("b") == [2, 4]
    with pytest.raises(ValueError):
        table.column("missing")


def test_table_notes_rendered():
    table = Table(title="t", headers=["a"])
    table.add_row(1)
    table.add_note("hello note")
    assert "hello note" in table.render()


def test_table_markdown_format():
    table = Table(title="md", headers=["col1", "col2"])
    table.add_row(1, False)
    md = table.to_markdown()
    assert "| col1 | col2 |" in md
    assert "| 1 | no |" in md
    assert md.startswith("### md")


def test_render_tables_joins_multiple():
    t1 = Table(title="one", headers=["a"])
    t1.add_row(1)
    t2 = Table(title="two", headers=["a"])
    t2.add_row(2)
    combined = render_tables([t1, t2])
    assert "one" in combined and "two" in combined


def test_str_is_render():
    table = Table(title="t", headers=["a"])
    table.add_row(5)
    assert str(table) == table.render()


# -- GuaranteeCheck / verify_guarantees ---------------------------------------------------


def test_guarantee_check_describe():
    check = GuaranteeCheck(name="precision", measured=0.1, bound=0.2, holds=True)
    assert "precision" in check.describe()
    assert "OK" in check.describe()
    bad = GuaranteeCheck(name="precision", measured=0.3, bound=0.2, holds=False)
    assert "VIOLATED" in bad.describe()


def synthetic_good_trace(params, rounds=5):
    """A hand-built trace that perfectly satisfies all guarantees."""
    trace = Trace()
    alpha = params.alpha_value
    for pid in range(params.n - params.f):
        trace.add_process(pid, FixedRateClock(rate=1.0, offset=0.0))
    for pid in range(params.n - params.f, params.n):
        trace.add_process(pid, FixedRateClock(), faulty=True)
    for k in range(1, rounds + 1):
        for pid in range(params.n - params.f):
            t = k * params.period + 0.002 + 0.0005 * pid
            before = trace.processes[pid].logical_at(t)
            after = k * params.period + alpha
            trace.record_adjustment(pid, t, after - t)
            trace.record_resync(ResyncEvent(pid=pid, round=k, time=t, logical_before=before, logical_after=after))
    trace.end_time = (rounds + 0.5) * params.period
    return trace


def test_verify_guarantees_all_hold_on_good_trace():
    params = params_for(5, authenticated=True)
    trace = synthetic_good_trace(params)
    report = verify_guarantees(trace, params, "auth", expected_round=5)
    assert report.all_hold, report.describe()
    assert report.violated() == []
    assert report.by_name("precision").holds
    assert "OK" in report.describe()


def test_verify_guarantees_detects_precision_violation():
    params = params_for(5, authenticated=True)
    trace = synthetic_good_trace(params)
    # Inject a huge divergence of process 0 late in the run.
    trace.record_adjustment(0, trace.end_time - 0.1, 3.0)
    report = verify_guarantees(trace, params, "auth", expected_round=5)
    assert not report.all_hold
    assert not report.by_name("precision").holds


def test_verify_guarantees_detects_liveness_violation():
    params = params_for(5, authenticated=True)
    trace = synthetic_good_trace(params, rounds=3)
    report = verify_guarantees(trace, params, "auth", expected_round=10)
    assert not report.by_name("liveness").holds


def test_verify_guarantees_detects_period_violation():
    params = params_for(5, authenticated=True)
    trace = synthetic_good_trace(params)
    # An extra, far-too-early resync of process 0 breaks the minimum period.
    t = 5 * params.period + 0.1
    trace.record_adjustment(0, t, trace.processes[0].adjustment_at(t))
    trace.record_resync(ResyncEvent(pid=0, round=6, time=t, logical_before=0, logical_after=0))
    report = verify_guarantees(trace, params, "auth", expected_round=5)
    assert not report.by_name("period_min").holds


def test_verify_guarantees_unknown_name_raises():
    params = params_for(5, authenticated=True)
    report = verify_guarantees(synthetic_good_trace(params), params, "auth")
    with pytest.raises(KeyError):
        report.by_name("nonexistent")
