"""Metrics-registry merge algebra: worker snapshots fold exactly.

The telemetry registry rests on the same algebraic fact as the shard fold
(``tests/test_shard_merge.py``): :func:`repro.obs.metrics.merge_snapshots`
is associative and commutative with :func:`empty_snapshot` as the identity,
so any grouping of the same worker snapshots -- per task, per worker, or one
flat fold -- produces the same parent registry.  These tests pin the algebra
directly, the histogram bucketing, and the ``absorb_*`` bridges from the
pre-existing scattered stats (fleet scheduler, kernel provenance).
"""

from __future__ import annotations

import random

from repro.obs.metrics import (
    HISTOGRAM_BOUNDS,
    MetricsRegistry,
    empty_snapshot,
    merge_snapshots,
)
from repro.workloads.scenarios import KernelProvenance


def _random_snapshot(seed: int) -> dict:
    """A registry snapshot with random counters and histograms.

    Histogram observations are dyadic rationals (k/64) so their float sums
    are exact under any association -- the groupings below must fold
    float-for-float identical, not merely close.
    """
    rng = random.Random(seed)
    registry = MetricsRegistry()
    for name in ("cache.hits", "fleet.tasks", "kernel.vector_lanes"):
        if rng.random() < 0.8:
            registry.inc(name, rng.randint(0, 9))
    for name in ("fleet.queue_wait_s", "fleet.probe_rtt_s"):
        for _ in range(rng.randint(0, 6)):
            registry.observe(name, rng.randint(1, 2**14) / 64)
    return registry.snapshot()


# -- algebra ---------------------------------------------------------------


def test_merge_is_associative():
    a, b, c = (_random_snapshot(seed) for seed in (1, 2, 3))
    left = merge_snapshots(merge_snapshots(a, b), c)
    right = merge_snapshots(a, merge_snapshots(b, c))
    flat = merge_snapshots(a, b, c)
    assert left == right == flat


def test_merge_is_commutative():
    a, b, c = (_random_snapshot(seed) for seed in (4, 5, 6))
    assert merge_snapshots(a, b, c) == merge_snapshots(c, b, a) == merge_snapshots(b, a, c)


def test_empty_snapshot_is_identity():
    snapshot = _random_snapshot(7)
    assert merge_snapshots(snapshot, empty_snapshot()) == snapshot
    assert merge_snapshots(empty_snapshot(), snapshot) == snapshot
    assert merge_snapshots() == empty_snapshot()


def test_merge_random_groupings_are_identical():
    """Any partition of the same worker snapshots folds to the same registry."""
    snapshots = [_random_snapshot(seed) for seed in range(10, 15)]
    reference = merge_snapshots(*snapshots)
    rng = random.Random(7)
    for _ in range(6):
        cut_a = rng.randint(1, 4)
        cut_b = rng.randint(cut_a, 4)
        groups = [snapshots[:cut_a], snapshots[cut_a:cut_b], snapshots[cut_b:]]
        folded = merge_snapshots(*(merge_snapshots(*group) for group in groups if group))
        assert folded == reference


def test_merge_semantics_per_kind():
    a = MetricsRegistry()
    a.inc("c", 2)
    a.observe("h", 0.001)
    b = MetricsRegistry()
    b.inc("c", 5)
    b.observe("h", 100.0)
    merged = merge_snapshots(a.snapshot(), b.snapshot())
    assert set(merged) == {"counters", "histograms"}
    assert merged["counters"]["c"] == 7  # counters add
    hist = merged["histograms"]["h"]
    assert hist["count"] == 2
    assert hist["sum"] == 100.001
    assert hist["min"] == 0.001 and hist["max"] == 100.0


def test_merge_does_not_mutate_inputs():
    a, b = _random_snapshot(20), _random_snapshot(21)
    a_copy = merge_snapshots(a)
    b_copy = merge_snapshots(b)
    merge_snapshots(a, b)
    assert a == a_copy and b == b_copy


# -- histogram bucketing ---------------------------------------------------


def test_histogram_buckets_are_le_bounds_with_overflow():
    registry = MetricsRegistry()
    registry.observe("h", HISTOGRAM_BOUNDS[0])  # lands in bucket 0 (le)
    registry.observe("h", HISTOGRAM_BOUNDS[0] * 1.5)  # just past bound 0
    registry.observe("h", HISTOGRAM_BOUNDS[-1] * 10)  # beyond every bound
    hist = registry.snapshot()["histograms"]["h"]
    assert len(hist["buckets"]) == len(HISTOGRAM_BOUNDS) + 1
    assert hist["buckets"][0] == 1
    assert hist["buckets"][1] == 1
    assert hist["buckets"][-1] == 1  # the +Inf overflow bucket
    assert hist["count"] == 3
    assert hist["min"] == HISTOGRAM_BOUNDS[0]
    assert hist["max"] == HISTOGRAM_BOUNDS[-1] * 10


def test_histogram_bounds_are_fixed_and_increasing():
    # Fixed shared bounds are what make bucket-wise merging exact.
    assert list(HISTOGRAM_BOUNDS) == sorted(HISTOGRAM_BOUNDS)
    assert HISTOGRAM_BOUNDS[0] == 0.0005
    assert all(b2 == b1 * 2 for b1, b2 in zip(HISTOGRAM_BOUNDS, HISTOGRAM_BOUNDS[1:]))


# -- registry behaviour ----------------------------------------------------


def test_snapshot_is_an_isolated_copy():
    registry = MetricsRegistry()
    registry.inc("c")
    registry.observe("h", 0.25)
    frozen = registry.snapshot()
    registry.inc("c", 9)
    registry.observe("h", 0.25)
    assert frozen["counters"]["c"] == 1
    assert frozen["histograms"]["h"]["count"] == 1


def test_absorb_merges_worker_snapshot():
    parent = MetricsRegistry()
    parent.inc("tasks", 1)
    parent.observe("wait", 0.5)
    worker = MetricsRegistry()
    worker.inc("tasks", 3)
    worker.observe("wait", 0.25)
    parent.absorb(worker.snapshot())
    snapshot = parent.snapshot()
    assert snapshot["counters"]["tasks"] == 4
    assert snapshot["histograms"]["wait"]["count"] == 2
    assert parent.counter("tasks") == 4
    assert parent.counter("never-seen") is None


def test_inc_zero_creates_the_series():
    # `repro stats` relies on this to force cache.* to exist when caching is off.
    registry = MetricsRegistry()
    registry.inc("cache.hits", 0)
    assert registry.counter("cache.hits") == 0


# -- absorption bridges ----------------------------------------------------


def test_absorb_fleet_stats():
    registry = MetricsRegistry()
    registry.absorb_fleet_stats({"tasks": 7, "retries": 1, "workers_lost": 1})
    snapshot = registry.snapshot()["counters"]
    assert snapshot["fleet.tasks"] == 7
    assert snapshot["fleet.retries"] == 1
    assert snapshot["fleet.workers_lost"] == 1


def test_absorb_kernel_provenance_namespaces():
    provenance = KernelProvenance(resolved="vector", vector_lanes=3, fallback_lanes=1, ineligible_lanes=2)
    registry = MetricsRegistry()
    registry.absorb_kernel_provenance(provenance)
    registry.absorb_kernel_provenance(provenance, prefix="provenance")
    counters = registry.snapshot()["counters"]
    # Live accounting and post-hoc CLI absorption live in separate namespaces
    # so they can never double-count each other.
    assert counters["kernel.vector_lanes"] == 3
    assert counters["kernel.fallback_lanes"] == 1
    assert counters["kernel.ineligible_lanes"] == 2
    assert counters["provenance.vector_lanes"] == 3
