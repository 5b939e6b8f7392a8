"""Exporters: Chrome trace viewer JSON, JSONL event stream, Prometheus text.

All exporters consume the plain-dict shapes defined next door --
:meth:`~repro.obs.trace.Tracer.span_dict` entries and
:meth:`~repro.obs.metrics.MetricsRegistry.snapshot` dicts -- so they work
equally on live tracers and on payloads shipped across process boundaries.

Schemas (also documented in ``docs/observability.md``):

* **Chrome trace** (``repro run --trace-out``): the Trace Event Format's
  JSON object form, ``{"traceEvents": [...], "displayTimeUnit": "ms"}``.
  Each span becomes one ``ph="X"`` complete event with microsecond
  ``ts``/``dur``; the ``pid`` is a small per-origin index (one lane per
  process in the viewer), ``tid`` is 1, and ``args`` carries the span id,
  parent id, status, attributes and point events so nothing is lost in the
  visual form.
* **JSONL** (``repro run --events-out``): one span dict per line, the
  future ``repro serve`` wire format -- append-only, stream-parsable.
* **Prometheus text** (``repro stats``): ``repro_``-prefixed names with
  dots mangled to underscores, ``# TYPE`` comments, and the standard
  ``_bucket{le=...}`` / ``_sum`` / ``_count`` expansion for histograms.
"""

from __future__ import annotations

import json

from .metrics import HISTOGRAM_BOUNDS

#: Seconds of slack allowed when checking that a child span nests inside its
#: parent's interval.  Cross-process spans are rebased through wall-clock
#: anchors (``time.time()``) sampled at different instants, so sub-second
#: disagreement is expected noise, not corruption.
NESTING_EPSILON_S = 0.5


def _span_sort_key(entry: dict) -> tuple:
    return (entry["start"], entry["id"])


def chrome_trace_events(spans: list) -> list:
    """Span dicts -> Chrome Trace Event Format ``ph="X"`` complete events."""
    origins: dict = {}
    events = []
    for entry in sorted(spans, key=_span_sort_key):
        origin = entry["id"].split(":", 1)[0]
        pid = origins.setdefault(origin, len(origins) + 1)
        end = entry["end"] if entry["end"] is not None else entry["start"]
        args = {
            "id": entry["id"],
            "parent": entry["parent"],
            "status": entry["status"],
        }
        if entry.get("attrs"):
            args["attrs"] = entry["attrs"]
        if entry.get("events"):
            args["events"] = [
                {"ts_us": round(t * 1e6), "name": name, "detail": detail} for t, name, detail in entry["events"]
            ]
        events.append(
            {
                "name": entry["name"],
                "ph": "X",
                "ts": round(entry["start"] * 1e6),
                "dur": round((end - entry["start"]) * 1e6),
                "pid": pid,
                "tid": 1,
                "args": args,
            }
        )
    return events


def write_chrome_trace(path, spans: list) -> int:
    """Write ``spans`` (span dicts) to ``path`` as a Chrome trace; returns the span count."""
    payload = {"traceEvents": chrome_trace_events(spans), "displayTimeUnit": "ms"}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
        handle.write("\n")
    return len(payload["traceEvents"])


def write_jsonl(path, spans: list) -> int:
    """Write ``spans`` (span dicts) to ``path`` as one JSON object per line."""
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for entry in sorted(spans, key=_span_sort_key):
            handle.write(json.dumps(entry) + "\n")
            count += 1
    return count


def validate_trace_file(path) -> dict:
    """Check a Chrome trace written by :func:`write_chrome_trace` is coherent.

    Raises ``ValueError`` on malformed JSON, duplicate span ids, parent
    references that do not resolve within the file, or a child interval
    that escapes its parent's by more than :data:`NESTING_EPSILON_S`.
    Returns a summary dict: span count, distinct origins (id prefixes,
    i.e. participating processes), and how many spans have parents.
    """
    with open(path, "r", encoding="utf-8") as handle:
        try:
            payload = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ValueError(f"trace file {path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict) or "traceEvents" not in payload:
        raise ValueError(f"trace file {path} has no traceEvents array")
    intervals: dict = {}
    parents: dict = {}
    for event in payload["traceEvents"]:
        span_id = event["args"]["id"]
        if span_id in intervals:
            raise ValueError(f"duplicate span id {span_id}")
        intervals[span_id] = (event["ts"], event["ts"] + event["dur"])
        parents[span_id] = event["args"]["parent"]
    epsilon_us = NESTING_EPSILON_S * 1e6
    linked = 0
    for span_id, parent_id in parents.items():
        if parent_id is None:
            continue
        if parent_id not in intervals:
            raise ValueError(f"span {span_id} references unknown parent {parent_id}")
        linked += 1
        child_start, child_end = intervals[span_id]
        parent_start, parent_end = intervals[parent_id]
        if child_start < parent_start - epsilon_us or child_end > parent_end + epsilon_us:
            raise ValueError(
                f"span {span_id} [{child_start}, {child_end}]us escapes parent "
                f"{parent_id} [{parent_start}, {parent_end}]us"
            )
    origins = {span_id.split(":", 1)[0] for span_id in intervals}
    return {"spans": len(intervals), "origins": len(origins), "linked": linked}


def _prom_name(name: str) -> str:
    return "repro_" + name.replace(".", "_").replace("-", "_")


def render_prometheus(snapshot: dict) -> str:
    """Render a metrics snapshot as Prometheus text exposition format."""
    lines = []
    for name in sorted(snapshot.get("counters", {})):
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} counter")
        lines.append(f"{prom} {snapshot['counters'][name]}")
    for name in sorted(snapshot.get("histograms", {})):
        hist = snapshot["histograms"][name]
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} histogram")
        cumulative = 0
        for bound, count in zip(HISTOGRAM_BOUNDS, hist["buckets"]):
            cumulative += count
            lines.append(f'{prom}_bucket{{le="{bound:g}"}} {cumulative}')
        cumulative += hist["buckets"][-1]
        lines.append(f'{prom}_bucket{{le="+Inf"}} {cumulative}')
        lines.append(f"{prom}_sum {hist['sum']:g}")
        lines.append(f"{prom}_count {hist['count']}")
    return "\n".join(lines) + ("\n" if lines else "")
