"""Lane blocks across grid cells: a chunk's eligible cells share one ``run_lanes`` call.

``run_scenarios`` is the plural of ``run_scenario`` and what every runner
chunk -- a worker task or a serial window -- calls.  Packing is only allowed
to change *when* a cell is computed, never a float of it, its provenance, its
cache key or its stored bytes; these tests hold the packed path against the
per-cell one at each of those levels, with every kind of cell a block must
leave alone (full traces, ``kernel="event"``, ineligible, replicated) and a
repeated cell mixed in.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro import obs
from repro.experiments.common import MEASURED_RESULT_FIELDS, adversarial_scenario, default_params
from repro.runner import ResultCache, SweepRunner, cache_key, resolve_check_guarantees
from repro.sim.kernel import kernel_ineligibility, numpy_or_none
from repro.sim.vectorized import _Layout, run_lanes
from repro.workloads import scenarios as scenarios_module
from repro.workloads.scenarios import run_scenario, run_scenarios

from test_kernel_parity import cell, generated_scenario
from test_runner import results_fingerprint
from test_vector_kernel_lean import lanes

pytestmark = pytest.mark.skipif(numpy_or_none() is None, reason="numpy not installed")

SWEEP_SEED = 22


def generated_sweep(rng):
    """``(cells, eligible)``: one sweep of ``(scenario, check, level)`` cells, and how many may share a block.

    Two to four generated families as seeds-as-cells (each cell sampling
    messages at its own rate), interleaved; then one cell of each kind a
    block leaves alone, at random positions; then a repeat of one block cell
    in the middle of the list.
    """
    families = []
    while len(families) < 4:
        family = generated_scenario(rng)
        if kernel_ineligibility(family, "metrics") is None:
            families.append(family)
    cells = [
        (
            dataclasses.replace(
                family, seed=rng.randrange(1_000_000), sample_messages=rng.choice([None, 1, 5])
            ),
            rng.choice([None, False]),
            "metrics",
        )
        for family in families[: rng.randint(2, 4)]
        for _ in range(rng.randint(2, 5))
    ]
    rng.shuffle(cells)
    eligible = len(cells) + 1  # the repeat rides along
    base = families[0]
    for alone in (
        (dataclasses.replace(base, sample_messages=None), False, "full"),  # full traces need the event loop
        (dataclasses.replace(base, kernel="event"), None, "metrics"),
        (dataclasses.replace(base, attack=rng.choice(["alternating", "replay"])), False, "metrics"),
        (dataclasses.replace(base, replications=3, shards=rng.choice([1, 3])), False, "metrics"),
    ):
        cells.insert(rng.randrange(len(cells) + 1), alone)
    cells.insert(len(cells) // 2, rng.choice([c for c in cells if _rides_a_block(c)]))
    return cells, eligible


def _rides_a_block(c) -> bool:
    scenario, _check, level = c
    return scenario.replications == 1 and scenario.kernel is None and kernel_ineligibility(scenario, level) is None


def provenances(results):
    return [result.kernel_provenance for result in results]


# -- (a) run_scenarios == run_scenario per cell --------------------------------------------


def test_packed_cells_equal_each_cell_alone_on_a_generated_sweep(monkeypatch):
    block_sizes = []
    in_shard = []
    real_run_shard = scenarios_module.run_shard

    def spy(scenarios):
        if not in_shard:  # the replicated cell's shards come through here too
            block_sizes.append(len(scenarios))
        return run_lanes(scenarios)

    def shard_spy(*args):
        in_shard.append(True)
        try:
            return real_run_shard(*args)
        finally:
            in_shard.pop()

    monkeypatch.setattr(scenarios_module, "run_lanes", spy)
    monkeypatch.setattr(scenarios_module, "run_shard", shard_spy)
    rng = random.Random(SWEEP_SEED)
    drawn = 0
    while drawn < 60:
        cells, eligible = generated_sweep(rng)
        drawn += len(cells)
        block_sizes.clear()
        packed = list(run_scenarios(cells))
        assert block_sizes == [eligible], "the eligible cells did not share one run_lanes call"
        alone = [run_scenario(*c) for c in cells]
        assert results_fingerprint(packed) == results_fingerprint(alone)
        assert provenances(packed) == provenances(alone)
        assert [r.message_samples for r in packed] == [r.message_samples for r in alone]
        assert sum(p.vector_lanes for p in provenances(packed)) >= eligible  # + the replicated cell's


def test_run_scenario_is_the_one_cell_case(monkeypatch):
    seen = []
    monkeypatch.setattr(
        scenarios_module, "run_scenarios", lambda cells: seen.append(cells) or iter(["the result"])
    )
    scenario = cell(7)
    assert run_scenario(scenario, False, "metrics") == "the result"
    assert seen == [[(scenario, False, "metrics")]]


# -- sample_messages is read off each lane ------------------------------------------------


@pytest.mark.parametrize("delay", ["targeted", "uniform"], ids=["lockstep", "replay"])
def test_block_mixing_sample_rates_equals_each_lane_alone(delay):
    block = [
        cell(7, delay=delay, seed=40 + index, sample=sample)
        for index, sample in enumerate([None, 1, 5, 1, None, 5])
    ]
    assert _Layout(block[0], numpy_or_none()).lockstep == (delay == "targeted")
    together = run_lanes(block)
    assert together == [run_lanes([lane])[0] for lane in block]
    for lane, outcome in zip(block, together):
        samples = outcome.summary.message_samples
        if lane.sample_messages is None:
            assert samples is None
        else:
            assert [s.msg_id for s in samples] == list(
                range(0, outcome.summary.total_messages, lane.sample_messages)
            )
    results = list(run_scenarios([(lane, None, "metrics") for lane in block]))
    assert [r.message_samples for r in results] == [o.summary.message_samples for o in together]


# -- (b) a block some lanes leave mid-run --------------------------------------------------


def test_refused_lanes_rerun_alone_and_served_lanes_are_untouched():
    # The 16-lane guard block of test_vector_kernel_lean: some seeds leave the
    # proven regime at round 2 of 8 and ride along, masked, to the end.
    block = lanes(dict(n=7, attack="laggard", delay="max", rounds=8), 16, period=0.015)
    obs.enable(trace=False)
    try:
        packed = list(run_scenarios([(lane, False, "metrics") for lane in block]))
        counters = obs.registry().snapshot()["counters"]
    finally:
        obs.disable()
    alone = [run_scenario(lane, False, "metrics") for lane in block]
    assert results_fingerprint(packed) == results_fingerprint(alone)
    assert provenances(packed) == provenances(alone)
    refused = [result for result in packed if result.kernel_provenance.fallback_lanes]
    assert 0 < len(refused) < len(block)
    for result in packed:
        provenance = result.kernel_provenance
        if provenance.fallback_lanes:
            assert provenance.vector_lanes == 0
            assert provenance.fallback_reasons == (("rounds 1 and 2 share an instant", 1),)
            event = run_scenario(dataclasses.replace(result.scenario, kernel="event"), False, "metrics")
            for field in MEASURED_RESULT_FIELDS:
                assert getattr(result, field) == getattr(event, field), field
        else:
            assert (provenance.vector_lanes, provenance.fallback_reasons) == (1, ())
    assert counters["kernel.fallback_lanes"] == len(refused)
    assert counters["kernel.vector_lanes"] == len(block) - len(refused)
    assert counters["kernel.blocks"] == 1


# -- (c) the runner: every backend, cache off, cold and warm -------------------------------


def test_runner_backends_and_cache_agree_with_the_per_cell_reference(tmp_path):
    cells, _ = generated_sweep(random.Random(SWEEP_SEED))
    scenarios = [c[0] for c in cells]
    checks = [c[1] for c in cells]
    levels = [c[2] for c in cells]
    reference = [run_scenario(*c) for c in cells]
    fingerprint = results_fingerprint(reference)

    # What every cache must hold, computed without the runner or a block.
    keys = [
        cache_key(s, resolve_check_guarantees(s, c), trace_level=level) for s, c, level in cells
    ]
    oracle = ResultCache(tmp_path / "oracle")
    for key, result in zip(keys, reference):
        oracle.put(key, result)

    def stored(cache):
        return {key: open(cache._path(key), "rb").read() for key in set(keys)}

    def decoded(cache):
        return {key: results_fingerprint([cache.get(key)]) for key in set(keys)}

    for label, options in (
        ("serial", dict(jobs=1)),
        ("pool", dict(jobs=2)),
        ("subprocess", dict(jobs=2, executor="subprocess")),
    ):
        cache = ResultCache(tmp_path / label)
        with SweepRunner(**options) as plain, SweepRunner(cache=cache, **options) as cached:
            order = []
            results = [None] * len(cells)

            def collect(index, result):
                order.append(index)
                results[index] = result

            plain.stream_sweep(scenarios, collect, check_guarantees=checks, trace_level=levels)
            assert results_fingerprint(results) == fingerprint, label
            assert provenances(results) == provenances(reference), label
            assert sorted(order) == list(range(len(cells)))
            if label == "serial":
                assert order == list(range(len(cells)))  # input order, window or not
            for temperature in ("cold", "warm"):
                got = cached.run_sweep(scenarios, check_guarantees=checks, trace_level=levels)
                assert results_fingerprint(got) == fingerprint, (label, temperature)
            assert cache.stats.stores == len(set(keys)), label
            assert decoded(cache) == decoded(oracle), label
            if label == "serial":
                # A result that crossed a process boundary pickles with other
                # memo references (at the parent commit too): bytes only here.
                assert stored(cache) == stored(oracle)


# -- (d) block fill -------------------------------------------------------------------------


def test_cache_cold_grid_runs_as_nine_blocks_of_twenty(tmp_path):
    # perfbench's cache_cold grid (auth n in {7, 10, 13} x three attacks x 20
    # seeds, one sweep per family), rebuilt here: perfbench is not importable.
    seeds = iter(range(1000, 10_000, 37))
    groups = [
        [
            adversarial_scenario(
                default_params(n, authenticated=True), "auth", attack=attack, rounds=6, seed=next(seeds)
            )
            for _ in range(20)
        ]
        for n in (7, 10, 13)
        for attack in ("eager", "skew_max", "two_faced")
    ]
    runner = SweepRunner(jobs=1, cache=ResultCache(tmp_path))
    obs.enable()
    try:
        for group in groups:
            runner.run_sweep(group, trace_level="metrics")
        spans = obs.tracer().all_spans()
        registry = obs.registry()
        assert [span.attrs["lanes"] for span in spans if span.name == "kernel.phase1"] == [20] * 9
        assert [span.attrs["lanes"] for span in spans if span.name == "scenario.run"] == [20] * 9
        assert registry.counter("kernel.blocks") == 9
        assert registry.counter("kernel.vector_lanes") == 180
        assert not registry.counter("kernel.fallback_lanes")
    finally:
        obs.disable()
    assert (runner.cache.stats.misses, runner.cache.stats.stores) == (180, 180)
