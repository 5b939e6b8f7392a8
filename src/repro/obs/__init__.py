"""Unified telemetry: span tracing, metrics that merge across processes, exporters.

This package is the one observability surface for the whole stack --
sweep runner, executor fleet, shard fold, vector/event kernels, result
cache.  It is **off by default**: the module-level :func:`span`,
:func:`event`, :func:`inc`, :func:`gauge_max` and :func:`observe` helpers
are no-ops that allocate nothing until :func:`enable` installs a
:class:`~repro.obs.trace.Tracer` and/or a
:class:`~repro.obs.metrics.MetricsRegistry`.  Telemetry never reads
simulated time and never consumes a seeded RNG stream, so a traced run is
float-identical to an untraced run (pinned in
``tests/test_obs_integration.py``).

Typical use::

    from repro import obs

    obs.enable()
    result = run_scenario(scenario)
    obs.tracer().export_payload()   # spans for the exporters
    obs.registry().snapshot()       # metrics for `repro stats`
    obs.disable()

Instrumented call sites follow two rules: attach attributes via
``sp.set(key, value)`` (a no-op on the shared null span) rather than
computing kwargs, and guard any dict-building ``event(...)`` detail behind
:func:`enabled` so the disabled path performs no allocation at all.
"""

from __future__ import annotations

from typing import Optional

from .metrics import HISTOGRAM_BOUNDS, MetricsRegistry, empty_snapshot, merge_snapshots
from .trace import NULL_SPAN, SPAN_STATUSES, Span, Tracer

__all__ = [
    "HISTOGRAM_BOUNDS",
    "MetricsRegistry",
    "NULL_SPAN",
    "SPAN_STATUSES",
    "Span",
    "Tracer",
    "empty_snapshot",
    "merge_snapshots",
    "enable",
    "disable",
    "enabled",
    "metrics_enabled",
    "tracer",
    "registry",
    "install",
    "span",
    "event",
    "inc",
    "gauge_max",
    "observe",
    "wire_context",
]

_tracer: Optional[Tracer] = None
_registry: Optional[MetricsRegistry] = None


def enable(trace: bool = True, metrics: bool = True) -> None:
    """Install a fresh tracer and/or metrics registry for this process."""
    global _tracer, _registry
    if trace:
        _tracer = Tracer()
    if metrics:
        _registry = MetricsRegistry()


def disable() -> None:
    """Uninstall telemetry; the module helpers revert to allocation-free no-ops."""
    global _tracer, _registry
    _tracer = None
    _registry = None


def install(tracer: Optional[Tracer], registry: Optional[MetricsRegistry]) -> tuple:
    """Swap in specific instances (worker-side per-task); returns the previous pair."""
    global _tracer, _registry
    previous = (_tracer, _registry)
    _tracer = tracer
    _registry = registry
    return previous


def enabled() -> bool:
    """True when span tracing is on (guard for event-detail allocation)."""
    return _tracer is not None


def metrics_enabled() -> bool:
    """True when the metrics registry is on."""
    return _registry is not None


def tracer() -> Optional[Tracer]:
    """The installed tracer, or ``None``."""
    return _tracer


def registry() -> Optional[MetricsRegistry]:
    """The installed metrics registry, or ``None``."""
    return _registry


def span(name: str, parent: Optional[str] = None):
    """Start a span (ambient parent by default); the shared null span when off."""
    if _tracer is None:
        return NULL_SPAN
    return _tracer.begin(name, parent=parent)


def event(name: str, detail=None) -> None:
    """Attach a point event to the ambient span, if tracing is on."""
    if _tracer is None:
        return
    stack = getattr(_tracer._tls, "stack", None)
    if stack:
        stack[-1].event(name, detail)


def inc(name: str, value: int = 1) -> None:
    """Increment a counter, if the registry is on."""
    if _registry is not None:
        _registry.inc(name, value)


def gauge_max(name: str, value: float) -> None:
    """Raise a high-water-mark gauge, if the registry is on."""
    if _registry is not None:
        _registry.gauge_max(name, value)


def observe(name: str, value: float) -> None:
    """Record a histogram observation, if the registry is on."""
    if _registry is not None:
        _registry.observe(name, value)


def wire_context(parent: Optional[str] = None) -> Optional[dict]:
    """The trace context shipped inside executor task frames, or ``None`` when off.

    ``None`` keeps task frames byte-identical to the untraced wire format;
    workers only collect telemetry when a context rides the frame.
    """
    if _tracer is None and _registry is None:
        return None
    if parent is None and _tracer is not None:
        parent = _tracer.current_id()
    return {
        "trace": _tracer is not None,
        "parent": parent,
        "metrics": _registry is not None,
    }
