"""The metrics registry: counters, gauges and histograms that merge across processes.

One :class:`MetricsRegistry` per process (or per worker task); snapshots are
plain dicts that merge through the same kind of exact associative algebra as
:class:`~repro.sim.recorder.OnlineMetricsSummary` -- worker-side registries
fold into the parent's exactly like shard summaries do:

* **counters** add,
* **gauges** combine by ``max`` (they record high-water marks),
* **histograms** share the fixed bucket bounds :data:`HISTOGRAM_BOUNDS`, so
  merging is element-wise bucket addition plus exact ``count``/``sum`` sums
  and ``min``/``max`` combines.

Every combining operation is associative and commutative with
:func:`empty_snapshot` as the identity, so any grouping of the same worker
snapshots -- per task, per worker, or one flat fold -- produces the same
parent registry (``tests/test_obs_metrics.py`` pins this the way
``tests/test_shard_merge.py`` pins the summary algebra).

Naming convention: dotted lowercase ``<subsystem>.<quantity>`` names
(``cache.hits``, ``fleet.tasks``, ``kernel.vector_lanes``,
``fleet.queue_wait_s``); timing histograms end in ``_s`` (seconds).  The
registry also absorbs the pre-existing scattered counters --
:class:`~repro.runner.cache.CacheStats`, the executor scheduler's stats
dict, :class:`~repro.workloads.scenarios.KernelProvenance` lane counts --
via the ``absorb_*`` helpers, making it the one queryable surface
(``repro stats`` renders it Prometheus-style).
"""

from __future__ import annotations

import threading
from typing import Optional

#: Fixed exponential histogram bucket upper bounds (seconds): 0.5 ms doubling
#: to ~262 s.  Fixed and shared so histograms merge by bucket-count addition
#: with no re-binning; observations above the last bound land in the
#: overflow bucket (``+Inf``).
HISTOGRAM_BOUNDS = tuple(0.0005 * (2.0**i) for i in range(20))


def empty_snapshot() -> dict:
    """The merge identity: a snapshot with no metrics at all."""
    return {"counters": {}, "gauges": {}, "histograms": {}}


def _merge_histogram(into: dict, part: dict) -> None:
    into["buckets"] = [a + b for a, b in zip(into["buckets"], part["buckets"])]
    into["count"] += part["count"]
    into["sum"] += part["sum"]
    into["min"] = part["min"] if into["min"] is None else min(into["min"], part["min"])
    into["max"] = part["max"] if into["max"] is None else max(into["max"], part["max"])


def merge_snapshots(*snapshots: dict) -> dict:
    """Pure fold of registry snapshots (associative, commutative, exact).

    Returns a new snapshot; the inputs are not mutated.  Counter values add,
    gauges combine by ``max``, histograms add bucket-wise -- all operations
    on exact ints (or float sums whose addition order is fixed by the
    argument order, which every grouping of the same parts preserves because
    bucket counts and integer sums dominate the payload).
    """
    merged = empty_snapshot()
    for snapshot in snapshots:
        for name, value in snapshot.get("counters", {}).items():
            merged["counters"][name] = merged["counters"].get(name, 0) + value
        for name, value in snapshot.get("gauges", {}).items():
            merged["gauges"][name] = max(merged["gauges"].get(name, value), value)
        for name, part in snapshot.get("histograms", {}).items():
            into = merged["histograms"].get(name)
            if into is None:
                merged["histograms"][name] = {
                    "buckets": list(part["buckets"]),
                    "count": part["count"],
                    "sum": part["sum"],
                    "min": part["min"],
                    "max": part["max"],
                }
            else:
                _merge_histogram(into, part)
    return merged


class MetricsRegistry:
    """A thread-safe bag of counters, gauges and fixed-bucket histograms."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict = {}
        self._gauges: dict = {}
        self._histograms: dict = {}

    # -- recording ---------------------------------------------------------

    def inc(self, name: str, value: int = 1) -> None:
        """Add ``value`` to the counter ``name`` (creating it at 0)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

    def gauge_max(self, name: str, value: float) -> None:
        """Raise the high-water-mark gauge ``name`` to at least ``value``."""
        with self._lock:
            current = self._gauges.get(name)
            if current is None or value > current:
                self._gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        """Record one observation into the histogram ``name``."""
        with self._lock:
            hist = self._histograms.get(name)
            if hist is None:
                hist = self._histograms[name] = {
                    "buckets": [0] * (len(HISTOGRAM_BOUNDS) + 1),
                    "count": 0,
                    "sum": 0.0,
                    "min": None,
                    "max": None,
                }
            index = len(HISTOGRAM_BOUNDS)
            for i, bound in enumerate(HISTOGRAM_BOUNDS):
                if value <= bound:
                    index = i
                    break
            hist["buckets"][index] += 1
            hist["count"] += 1
            hist["sum"] += value
            hist["min"] = value if hist["min"] is None else min(hist["min"], value)
            hist["max"] = value if hist["max"] is None else max(hist["max"], value)

    # -- snapshots and merging ---------------------------------------------

    def snapshot(self) -> dict:
        """A deep, JSON-able copy of the registry's current state."""
        with self._lock:
            return merge_snapshots(
                {
                    "counters": self._counters,
                    "gauges": self._gauges,
                    "histograms": self._histograms,
                }
            )

    def absorb(self, snapshot: dict) -> None:
        """Merge a snapshot (typically a worker's) into this registry."""
        merged = merge_snapshots(self.snapshot(), snapshot)
        with self._lock:
            self._counters = merged["counters"]
            self._gauges = merged["gauges"]
            self._histograms = merged["histograms"]

    # -- absorption of the pre-existing scattered stats ----------------------

    def absorb_cache_stats(self, stats) -> None:
        """Fold a :class:`~repro.runner.cache.CacheStats` into ``cache.*`` counters."""
        for key, value in stats.as_dict().items():
            self.inc(f"cache.{key}", value)

    def absorb_fleet_stats(self, stats: dict) -> None:
        """Fold an executor's scheduler stats dict into ``fleet.*`` counters."""
        for key, value in stats.items():
            self.inc(f"fleet.{key}", value)

    def absorb_kernel_provenance(self, provenance, prefix: str = "kernel") -> None:
        """Fold a :class:`~repro.workloads.scenarios.KernelProvenance` into counters.

        ``prefix`` namespaces the counters (``kernel.*`` for live per-lane
        accounting, ``provenance.*`` when the CLI folds a finished result's
        record) so live worker-merged counts and post-hoc absorption never
        double-count each other.
        """
        self.inc(f"{prefix}.vector_lanes", provenance.vector_lanes)
        self.inc(f"{prefix}.fallback_lanes", provenance.fallback_lanes)
        self.inc(f"{prefix}.ineligible_lanes", provenance.ineligible_lanes)

    # -- introspection -----------------------------------------------------

    def counter(self, name: str) -> Optional[int]:
        """The counter's current value, or ``None`` if it never incremented."""
        with self._lock:
            return self._counters.get(name)

    def __repr__(self) -> str:
        with self._lock:
            return (
                f"MetricsRegistry(counters={len(self._counters)}, "
                f"gauges={len(self._gauges)}, histograms={len(self._histograms)})"
            )
