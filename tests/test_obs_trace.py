"""Span tracing and exporters: ambient nesting, rebasing, file formats.

Unit coverage for :mod:`repro.obs`: the disabled path allocates nothing and
returns the shared null span, ambient thread-local parenting, cross-process
payload ingest with clock rebasing, and the three exporters (Chrome trace,
JSONL, Prometheus text) including :func:`validate_trace_file`'s rejection of
malformed or incoherent traces.
"""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.obs.export import (
    render_prometheus,
    validate_trace_file,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_SPAN, Tracer


@pytest.fixture(autouse=True)
def _obs_disabled():
    obs.disable()
    yield
    obs.disable()


# -- disabled path ---------------------------------------------------------


def test_disabled_helpers_are_allocation_free_no_ops():
    assert not obs.enabled() and not obs.metrics_enabled()
    span = obs.span("anything")
    assert span is NULL_SPAN  # the one shared instance, no Span allocated
    with span as active:
        active.set("key", "value")
        active.event("point")
    assert span.span_id is None
    obs.event("nobody-listening")
    obs.inc("counter")
    obs.observe("hist", 1.0)
    assert obs.wire_context() is None  # untraced task frames stay 4-element
    assert obs.tracer() is None and obs.registry() is None


def test_enable_disable_roundtrip():
    obs.enable()
    assert obs.enabled() and obs.metrics_enabled()
    assert obs.span("x") is not NULL_SPAN
    context = obs.wire_context()
    assert context == {"trace": True, "parent": None, "metrics": True}
    obs.disable()
    assert obs.span("x") is NULL_SPAN


def test_enable_metrics_only():
    obs.enable(trace=False, metrics=True)
    assert not obs.enabled() and obs.metrics_enabled()
    assert obs.span("x") is NULL_SPAN
    obs.inc("c", 2)
    assert obs.registry().counter("c") == 2
    # A metrics-only context still rides the frame so workers collect counters.
    assert obs.wire_context() == {"trace": False, "parent": None, "metrics": True}


def test_install_swaps_and_restores():
    obs.enable()
    original = (obs.tracer(), obs.registry())
    replacement = (Tracer(), MetricsRegistry())
    previous = obs.install(*replacement)
    assert previous == original
    assert (obs.tracer(), obs.registry()) == replacement
    obs.install(*previous)
    assert (obs.tracer(), obs.registry()) == original


# -- ambient nesting -------------------------------------------------------


def test_nested_spans_parent_ambiently():
    tracer = Tracer()
    with tracer.span("outer") as outer:
        assert tracer.current_id() == outer.span_id
        with tracer.span("inner") as inner:
            assert inner.parent_id == outer.span_id
    assert tracer.current_id() is None
    assert outer.status == "ok" and inner.status == "ok"
    assert inner.start >= outer.start and inner.end <= outer.end


def test_span_records_error_status_on_raise():
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.span("doomed"):
            raise RuntimeError("boom")
    (span,) = tracer.all_spans()
    assert span.status == "error" and span.end is not None


def test_begin_does_not_touch_ambient_stack():
    tracer = Tracer()
    detached = tracer.begin("async-task")
    assert tracer.current_id() is None  # begin() is for submit/complete pairs
    with tracer.span("child", parent=detached.span_id) as child:
        assert child.parent_id == detached.span_id
    detached.finish()
    assert detached.status == "ok"
    detached.finish("error")  # idempotent: the first finish wins
    assert detached.status == "ok"


def test_activation_parents_without_finishing():
    tracer = Tracer()
    root = tracer.begin("root")
    with tracer.activate(root):
        with tracer.span("child") as child:
            assert child.parent_id == root.span_id
    assert root.end is None  # leaving the activation never closes the span
    root.finish()


def test_span_ids_are_origin_prefixed_and_unique():
    tracer = Tracer()
    ids = [tracer.begin(f"s{i}").span_id for i in range(5)]
    assert len(set(ids)) == 5
    assert all(span_id.split(":", 1)[0] == tracer.origin for span_id in ids)


# -- cross-process ingest --------------------------------------------------


def test_ingest_rebases_foreign_clock():
    parent = Tracer()
    worker = Tracer()
    with worker.span("worker.task") as span:
        span.event("mark", {"k": 1})
    payload = worker.export_payload()
    # Simulate a worker whose monotonic clock started 5 s "later" relative to
    # wall time: ingest must shift every timestamp by the anchor difference.
    payload["clock_offset"] = parent.clock_offset + 5.0
    assert parent.ingest(payload) == 1
    (ingested,) = parent.all_spans()
    assert ingested.span_id == span.span_id  # origin-prefixed ids survive
    assert ingested.start == pytest.approx(span.start + 5.0)
    assert ingested.end == pytest.approx(span.end + 5.0)
    event_time, event_name, detail = ingested.events[0]
    assert event_name == "mark" and detail == {"k": 1}
    assert event_time == pytest.approx(span.events[0][0] + 5.0)


def test_export_payload_closes_open_spans_as_open():
    tracer = Tracer()
    tracer.begin("leaked")
    payload = tracer.export_payload()
    (entry,) = payload["spans"]
    assert entry["status"] == "open" and entry["end"] is not None


def test_close_open_with_status():
    tracer = Tracer()
    tracer.begin("in-flight")
    done = tracer.begin("done")
    done.finish()
    assert tracer.close_open("lost") == 1
    statuses = sorted(span.status for span in tracer.all_spans())
    assert statuses == ["lost", "ok"]


# -- exporters -------------------------------------------------------------


def _two_origin_spans() -> list:
    """A parent span plus an ingested worker child, as export-ready dicts."""
    parent = Tracer()
    worker = Tracer()
    with parent.span("runner.sweep") as sweep:
        child = worker.begin("worker.task", parent=sweep.span_id)
        child.set("task", 0)
        child.finish()
        parent.ingest(worker.export_payload())
    return parent.export_payload()["spans"]


def test_chrome_trace_roundtrip_and_validation(tmp_path):
    path = tmp_path / "trace.json"
    spans = _two_origin_spans()
    assert write_chrome_trace(path, spans) == 2
    info = validate_trace_file(path)
    assert info == {"spans": 2, "origins": 2, "linked": 1}
    payload = json.loads(path.read_text())
    assert payload["displayTimeUnit"] == "ms"
    events = payload["traceEvents"]
    assert {event["ph"] for event in events} == {"X"}
    pids = {event["args"]["id"].split(":")[0]: event["pid"] for event in events}
    assert len(set(pids.values())) == 2  # one viewer lane per origin


def test_jsonl_roundtrip(tmp_path):
    path = tmp_path / "spans.jsonl"
    spans = _two_origin_spans()
    assert write_jsonl(path, spans) == 2
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(lines) == 2
    for entry in lines:
        assert set(entry) == {"id", "parent", "name", "start", "end", "status", "attrs", "events"}
    assert lines == sorted(lines, key=lambda entry: (entry["start"], entry["id"]))


def test_validate_rejects_malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ValueError, match="not valid JSON"):
        validate_trace_file(path)
    path.write_text('{"no": "traceEvents"}')
    with pytest.raises(ValueError, match="traceEvents"):
        validate_trace_file(path)


def test_validate_rejects_duplicate_ids(tmp_path):
    spans = _two_origin_spans()
    spans.append(dict(spans[0]))
    path = tmp_path / "dup.json"
    write_chrome_trace(path, spans)
    with pytest.raises(ValueError, match="duplicate span id"):
        validate_trace_file(path)


def test_validate_rejects_unknown_parent(tmp_path):
    spans = _two_origin_spans()
    spans[1]["parent"] = "ffffffff:999"
    path = tmp_path / "orphan.json"
    write_chrome_trace(path, spans)
    with pytest.raises(ValueError, match="unknown parent"):
        validate_trace_file(path)


def test_validate_rejects_child_escaping_parent(tmp_path):
    tracer = Tracer()
    with tracer.span("parent"):
        pass
    runaway = tracer.begin("runaway")
    runaway.parent_id = tracer.all_spans()[0].span_id
    runaway.start = tracer.all_spans()[0].start
    runaway.end = runaway.start + 10.0  # far past the parent's end
    runaway.status = "ok"
    path = tmp_path / "escape.json"
    write_chrome_trace(path, tracer.export_payload()["spans"])
    with pytest.raises(ValueError, match="escapes parent"):
        validate_trace_file(path)


def test_render_prometheus():
    registry = MetricsRegistry()
    registry.inc("cache.hits", 3)
    registry.inc("fleet.workers-lost", 2)
    registry.observe("fleet.queue_wait_s", 0.0004)  # below the first bound
    registry.observe("fleet.queue_wait_s", 1e9)  # beyond the last bound
    text = render_prometheus(registry.snapshot())
    assert "# TYPE repro_cache_hits counter\nrepro_cache_hits 3\n" in text
    assert "repro_fleet_workers_lost 2\n" in text  # dots and dashes mangled
    assert 'repro_fleet_queue_wait_s_bucket{le="0.0005"} 1' in text
    assert 'repro_fleet_queue_wait_s_bucket{le="+Inf"} 2' in text
    assert "repro_fleet_queue_wait_s_count 2" in text
    assert render_prometheus({}) == ""
