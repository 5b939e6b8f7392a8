"""Tests for the parallel sweep runner and its on-disk result cache."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.analysis.serialize import result_to_json
from repro.experiments.common import default_params, stable_seed
from repro.runner import (
    ResultCache,
    SweepRunner,
    cache_key,
    configure,
    get_runner,
    reset_runner,
    resolve_check_guarantees,
)
from repro.workloads.scenarios import Scenario
from repro.workloads.sweeps import run_sweep


@pytest.fixture(autouse=True)
def _isolated_default_runner():
    """Keep the process-wide default runner out of these tests."""
    reset_runner()
    yield
    reset_runner()


def small_grid() -> list[Scenario]:
    scenarios = []
    for n in [4, 5]:
        for attack in ["eager", "silent"]:
            params = default_params(n, authenticated=True)
            scenarios.append(
                Scenario(params=params, algorithm="auth", attack=attack, rounds=4, seed=stable_seed(n, attack))
            )
    return scenarios


def results_fingerprint(results) -> list[str]:
    return [result_to_json(result, include_trace=True) for result in results]


# -- serial vs parallel ----------------------------------------------------------------


def test_parallel_results_identical_to_serial():
    scenarios = small_grid()
    serial = SweepRunner(jobs=1).run_sweep(scenarios)
    parallel = SweepRunner(jobs=2).run_sweep(scenarios)
    assert results_fingerprint(serial) == results_fingerprint(parallel)


def test_parallel_chunking_preserves_order():
    scenarios = small_grid()
    serial = SweepRunner(jobs=1).run_sweep(scenarios)
    chunked = SweepRunner(jobs=2, chunk_size=3).run_sweep(scenarios)
    assert results_fingerprint(serial) == results_fingerprint(chunked)


def test_serial_callback_order_matches_input():
    scenarios = small_grid()
    seen = []
    results = SweepRunner(jobs=1).run_sweep(scenarios, callback=seen.append)
    assert seen == results


def test_parallel_callback_fires_once_per_scenario():
    scenarios = small_grid()
    seen = []
    results = SweepRunner(jobs=2).run_sweep(scenarios, callback=seen.append)
    assert len(seen) == len(scenarios)
    assert sorted(results_fingerprint(seen)) == sorted(results_fingerprint(results))


def test_empty_sweep():
    assert SweepRunner(jobs=2).run_sweep([]) == []


def test_invalid_jobs_rejected():
    with pytest.raises(ValueError):
        SweepRunner(jobs=-1)
    with pytest.raises(ValueError):
        SweepRunner(chunk_size=0)


# -- check_guarantees handling ---------------------------------------------------------


def test_per_scenario_check_guarantees():
    params = default_params(4, authenticated=True)
    scenarios = [
        Scenario(params=params, algorithm="auth", attack="eager", rounds=4, seed=1),
        Scenario(params=params, algorithm="auth", attack="eager", rounds=4, seed=2),
    ]
    results = SweepRunner(jobs=1).run_sweep(scenarios, check_guarantees=[None, False])
    assert results[0].guarantees is not None
    assert results[1].guarantees is None


def test_check_guarantees_length_mismatch():
    scenarios = small_grid()
    with pytest.raises(ValueError):
        SweepRunner(jobs=1).run_sweep(scenarios, check_guarantees=[True])


def test_resolve_check_guarantees_defaults():
    params = default_params(4, authenticated=True)
    st = Scenario(params=params, algorithm="auth", rounds=4)
    over_spec = Scenario(params=params, algorithm="auth", rounds=4, actual_faults=params.f + 1)
    baseline = Scenario(params=params, algorithm="free_running", rounds=4)
    assert resolve_check_guarantees(st, None) is True
    assert resolve_check_guarantees(st, False) is False
    assert resolve_check_guarantees(over_spec, None) is False
    # Baselines never get a guarantee report, even when asked.
    assert resolve_check_guarantees(baseline, True) is False


# -- cache -----------------------------------------------------------------------------


def test_cache_miss_then_hit(tmp_path):
    scenarios = small_grid()
    cache = ResultCache(tmp_path)
    runner = SweepRunner(jobs=1, cache=cache)

    cold = runner.run_sweep(scenarios)
    assert cache.stats.misses == len(scenarios)
    assert cache.stats.stores == len(scenarios)
    assert cache.stats.hits == 0

    warm = runner.run_sweep(scenarios)
    assert cache.stats.hits == len(scenarios)
    assert results_fingerprint(cold) == results_fingerprint(warm)


def test_cache_shared_between_serial_and_parallel(tmp_path):
    scenarios = small_grid()
    cold = SweepRunner(jobs=2, cache=ResultCache(tmp_path)).run_sweep(scenarios)

    cache = ResultCache(tmp_path)
    warm = SweepRunner(jobs=1, cache=cache).run_sweep(scenarios)
    assert cache.stats.hits == len(scenarios)
    assert cache.stats.misses == 0
    assert results_fingerprint(cold) == results_fingerprint(warm)


def test_cache_invalidated_by_parameter_change(tmp_path):
    params = default_params(4, authenticated=True)
    scenario = Scenario(params=params, algorithm="auth", attack="eager", rounds=4, seed=3)
    cache = ResultCache(tmp_path)
    runner = SweepRunner(jobs=1, cache=cache)
    runner.run(scenario)

    changed = replace(scenario, params=params.with_(tdel=params.tdel * 2), name="")
    runner.run(changed)
    assert cache.stats.hits == 0
    assert cache.stats.misses == 2

    runner.run(changed)
    assert cache.stats.hits == 1


def test_cache_key_stability_and_sensitivity():
    params = default_params(4, authenticated=True)
    a = Scenario(params=params, algorithm="auth", attack="eager", rounds=4, seed=3)
    b = Scenario(params=params, algorithm="auth", attack="eager", rounds=4, seed=3)
    assert cache_key(a, True) == cache_key(b, True)
    assert cache_key(a, True) != cache_key(a, False)
    assert cache_key(a, True, salt="one") != cache_key(a, True, salt="two")
    c = replace(a, seed=4, name="")
    assert cache_key(a, True) != cache_key(c, True)


def test_cache_key_ignores_display_name(tmp_path):
    params = default_params(4, authenticated=True)
    plain = Scenario(params=params, algorithm="auth", attack="eager", rounds=4, seed=8)
    labelled = replace(plain, name="my-label")
    assert cache_key(plain, True) == cache_key(labelled, True)

    cache = ResultCache(tmp_path)
    runner = SweepRunner(jobs=1, cache=cache)
    runner.run(plain)
    result = runner.run(labelled)
    assert cache.stats.hits == 1
    # The hit hands back the scenario that was asked for, label included.
    assert result.scenario.name == "my-label"


def test_parallel_duplicates_computed_once(tmp_path):
    params = default_params(4, authenticated=True)
    scenario = Scenario(params=params, algorithm="auth", attack="eager", rounds=4, seed=9)
    scenarios = [scenario, replace(scenario, name="twin"), scenario]
    cache = ResultCache(tmp_path)
    seen = []
    results = SweepRunner(jobs=2, cache=cache).run_sweep(scenarios, callback=seen.append)
    assert cache.stats.stores == 1
    assert len(seen) == len(scenarios)
    assert [r.scenario.name for r in results] == [scenario.name, "twin", scenario.name]
    fingerprints = results_fingerprint([replace(r, scenario=scenario) for r in results])
    assert len(set(fingerprints)) == 1


def test_corrupt_cache_entry_recomputed(tmp_path):
    params = default_params(4, authenticated=True)
    scenario = Scenario(params=params, algorithm="auth", attack="eager", rounds=4, seed=5)
    cache = ResultCache(tmp_path)
    runner = SweepRunner(jobs=1, cache=cache)
    first = runner.run(scenario)

    (entry,) = list(tmp_path.glob("*/*.pkl"))
    entry.write_bytes(b"not a pickle")
    again = runner.run(scenario)
    assert cache.stats.misses == 2  # initial miss + corrupt entry treated as miss
    assert results_fingerprint([first]) == results_fingerprint([again])


def test_cache_clear_and_len(tmp_path):
    cache = ResultCache(tmp_path)
    runner = SweepRunner(jobs=1, cache=cache)
    runner.run_sweep(small_grid())
    assert len(cache) == len(small_grid())
    assert cache.clear() == len(small_grid())
    assert len(cache) == 0


# -- wiring ----------------------------------------------------------------------------


def test_run_sweep_uses_explicit_runner(tmp_path):
    scenarios = small_grid()[:2]
    cache = ResultCache(tmp_path)
    runner = SweepRunner(jobs=1, cache=cache)
    run_sweep(scenarios, runner=runner)
    assert cache.stats.stores == len(scenarios)


def test_configure_installs_default_runner(tmp_path):
    runner = configure(jobs=1, use_cache=True, cache_dir=tmp_path)
    assert get_runner() is runner
    assert runner.cache is not None and runner.cache.directory == tmp_path

    disabled = configure(jobs=2, use_cache=False)
    assert get_runner() is disabled
    assert disabled.cache is None
    assert disabled.jobs == 2


def test_explicit_cache_dir_implies_caching(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE", "0")
    runner = configure(cache_dir=tmp_path)
    assert runner.cache is not None
    assert runner.cache.directory == tmp_path


def test_env_defaults(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_JOBS", "3")
    monkeypatch.setenv("REPRO_CACHE", "0")
    reset_runner()
    runner = get_runner()
    assert runner.jobs == 3
    assert runner.cache is None

    monkeypatch.setenv("REPRO_CACHE", "1")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cachedir"))
    reset_runner()
    runner = get_runner()
    assert runner.cache is not None
    assert runner.cache.directory == tmp_path / "cachedir"


# -- streaming aggregation -------------------------------------------------------------


def test_stream_sweep_serial_in_input_order(tmp_path):
    # A cache hit (index 1) and a split replicated cell (index 4) are ready
    # before their window's chunk has run.
    scenarios = small_grid() + [replace(small_grid()[0], seed=99, replications=2, shards=2)]
    levels = ["full"] * 4 + ["metrics"]
    cache = ResultCache(tmp_path)
    SweepRunner(jobs=1, cache=cache).run_sweep(scenarios[1:2], trace_level="full")
    seen: list[int] = []
    rows: list = [None] * len(scenarios)

    def fold(index, result):
        seen.append(index)
        rows[index] = (result.scenario.name, result.completed_round)

    count = SweepRunner(jobs=1, cache=cache).stream_sweep(scenarios, fold, trace_level=levels)
    assert count == len(scenarios)
    assert cache.stats.hits == 1
    assert seen == list(range(len(scenarios)))
    assert all(row is not None for row in rows)


def test_stream_sweep_parallel_matches_run_sweep():
    scenarios = small_grid()
    reference = SweepRunner(jobs=1).run_sweep(scenarios)
    collected: list = [None] * len(scenarios)

    with SweepRunner(jobs=2) as runner:
        runner.stream_sweep(scenarios, lambda i, r: collected.__setitem__(i, r))
    assert results_fingerprint(collected) == results_fingerprint(reference)


def test_stream_sweep_parent_holds_o1_results():
    """The streaming path never accumulates the sweep's results in the parent.

    Weak references to every emitted result must die as the sweep progresses:
    with a serial runner and a reducer that drops results after folding, at
    most a constant number can be alive at any emission.
    """
    import gc
    import weakref

    scenarios = small_grid() + [replace(s, seed=s.seed + 1, name="") for s in small_grid()]
    alive: list[weakref.ref] = []
    high_water = 0

    def fold(index, result):
        nonlocal high_water
        alive.append(weakref.ref(result))
        del result
        gc.collect()
        high_water = max(high_water, sum(1 for ref in alive if ref() is not None))

    SweepRunner(jobs=1).stream_sweep(scenarios, fold)
    gc.collect()
    assert high_water <= 2, f"parent retained {high_water} results during a streamed sweep"
    assert sum(1 for ref in alive if ref() is not None) == 0


def test_stream_sweep_parent_holds_one_window_of_metrics_results():
    """The metrics-level twin: cells that share a block are computed together.

    A serial window's packed results exist at once, before any is emitted
    (so they are counted as live objects, not through weak references taken
    at emission); the bound is one window, whatever the sweep's size.
    """
    import gc

    from repro.runner.core import MAX_CHUNK
    from repro.workloads.scenarios import ScenarioResult

    def results_alive() -> int:
        gc.collect()
        return sum(1 for candidate in gc.get_objects() if isinstance(candidate, ScenarioResult))

    scenarios = [replace(small_grid()[index % 4], seed=index, name="") for index in range(2 * MAX_CHUNK + 8)]
    before = results_alive()
    live: dict[int, int] = {}

    def fold(index, result):
        if index % MAX_CHUNK == 0:  # a window's first emission: nothing of it dropped yet
            live[index] = results_alive() - before

    SweepRunner(jobs=1).stream_sweep(scenarios, fold, trace_level="metrics")
    assert live == {0: MAX_CHUNK, MAX_CHUNK: MAX_CHUNK, 2 * MAX_CHUNK: 8}
    assert max(live.values()) <= MAX_CHUNK + 1
    assert results_alive() == before


def test_serial_window_computes_a_repeated_key_once(tmp_path):
    """``[s, twin(s), s]`` with ``jobs=1``: one miss, one store, input order; then three hits."""
    scenario = small_grid()[0]
    scenarios = [scenario, replace(scenario, name="twin"), scenario]
    cache = ResultCache(tmp_path)
    emitted: list = []
    SweepRunner(jobs=1, cache=cache).stream_sweep(scenarios, lambda i, r: emitted.append((i, r)))
    assert cache.stats.as_dict() == {"hits": 0, "misses": 1, "stores": 1}
    assert [index for index, _ in emitted] == [0, 1, 2]
    assert [result.scenario.name for _, result in emitted] == [scenario.name, "twin", scenario.name]
    assert len(set(results_fingerprint([replace(r, scenario=scenario) for _, r in emitted]))) == 1

    SweepRunner(jobs=1, cache=cache).run_sweep(scenarios)
    assert cache.stats.as_dict() == {"hits": 3, "misses": 1, "stores": 1}


def test_stream_sweep_serves_cache_hits_and_duplicates(tmp_path):
    scenario = small_grid()[0]
    scenarios = [scenario, replace(scenario, name="twin"), scenario]
    cache = ResultCache(tmp_path)
    runner = SweepRunner(jobs=2, cache=cache)
    seen: list[int] = []
    runner.stream_sweep(scenarios, lambda i, r: seen.append(i))
    assert sorted(seen) == [0, 1, 2]
    assert cache.stats.stores == 1

    warm: list[int] = []
    SweepRunner(jobs=1, cache=cache).stream_sweep(scenarios, lambda i, r: warm.append(i))
    assert warm == [0, 1, 2]
    assert cache.stats.hits >= 3


def test_every_backend_counts_a_repeated_key_once(tmp_path):
    """``[s, twin(s), s]``: the same ``CacheStats`` in process, on the pool and on a fleet."""
    scenario = small_grid()[0]
    scenarios = [scenario, replace(scenario, name="twin"), scenario]
    reference = results_fingerprint(SweepRunner(jobs=1).run_sweep(scenarios))
    for label, options in (
        ("serial", dict(jobs=1)),
        ("pool", dict(jobs=2)),
        ("subprocess", dict(jobs=2, executor="subprocess")),
    ):
        cache = ResultCache(tmp_path / label)
        with SweepRunner(cache=cache, **options) as runner:
            assert results_fingerprint(runner.run_sweep(scenarios)) == reference, label
            assert cache.stats.as_dict() == {"hits": 0, "misses": 1, "stores": 1}, label
            assert results_fingerprint(runner.run_sweep(scenarios)) == reference, label
            assert cache.stats.as_dict() == {"hits": 3, "misses": 1, "stores": 1}, label


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_key_repeated_windows_apart_is_served(jobs, tmp_path):
    """``[s, MAX_CHUNK + 8 others, s]``: the repeat lands in a later window and is still emitted."""
    from repro.runner.core import MAX_CHUNK

    scenario = small_grid()[0]
    others = [replace(small_grid()[1], seed=seed) for seed in range(MAX_CHUNK + 8)]
    scenarios = [scenario, *others, scenario]
    cache = ResultCache(tmp_path)
    with SweepRunner(jobs=jobs, cache=cache) as runner:
        results = runner.run_sweep(scenarios, trace_level="metrics")
    assert all(result is not None for result in results)
    assert results_fingerprint(results[-1:]) == results_fingerprint(results[:1])
    assert cache.stats.stores == len(others) + 1


def test_persistent_pool_reused_across_sweeps():
    runner = SweepRunner(jobs=2)
    try:
        runner.run_sweep(small_grid()[:2])
        executor = runner._executor
        assert executor is not None
        runner.run_sweep(small_grid()[2:])
        assert runner._executor is executor  # same backend, no respawn
    finally:
        runner.close()
    assert runner._executor is None


# -- cache schema v10: grace is keyed at both trace levels ---------------------------------


def test_cache_key_keys_grace_at_both_trace_levels():
    scenario = small_grid()[0]
    graced = replace(scenario, grace=0.3)
    # Every run simulates through the grace window, full traces included, so
    # a key that dropped grace would serve a result with the wrong end time.
    for trace_level in ("metrics", "full"):
        assert cache_key(scenario, True, trace_level=trace_level) != cache_key(graced, True, trace_level=trace_level)


def test_effective_horizon_round_trips_through_cache(tmp_path):
    scenario = small_grid()[0]
    cache = ResultCache(tmp_path)
    runner = SweepRunner(jobs=1, cache=cache)
    cold = runner.run(scenario, trace_level="metrics")
    warm = runner.run(scenario, trace_level="metrics")
    assert cache.stats.hits == 1
    assert cold.stopped_early
    assert cold.effective_horizon is not None
    assert warm.effective_horizon == cold.effective_horizon
    assert warm.stopped_early == cold.stopped_early


# -- schema v4: the replication/shard axis ----------------------------------------------


def test_cache_key_resolves_shard_plan(monkeypatch):
    base = replace(small_grid()[0], replications=4)
    # The None-auto default resolves (here via REPRO_SHARDS) and shares the
    # entry with its explicit spelling; different plans get their own.
    monkeypatch.setenv("REPRO_SHARDS", "2")
    auto = replace(base, shards=None)
    assert cache_key(auto, True, trace_level="metrics") == cache_key(
        replace(base, shards=2), True, trace_level="metrics"
    )
    assert cache_key(auto, True, trace_level="metrics") != cache_key(
        replace(base, shards=4), True, trace_level="metrics"
    )
    # An unreplicated scenario always resolves to one shard: shards=None and
    # any explicit count share the entry.
    single = replace(small_grid()[0], replications=1)
    assert cache_key(single, True, trace_level="metrics") == cache_key(
        replace(single, shards=3), True, trace_level="metrics"
    )


def test_cache_key_distinguishes_replications_and_abort():
    scenario = small_grid()[0]
    assert cache_key(scenario, True, trace_level="metrics") != cache_key(
        replace(scenario, replications=2, shards=1), True, trace_level="metrics"
    )
    assert cache_key(scenario, True, trace_level="metrics") != cache_key(
        replace(scenario, abort_unreachable=True), True, trace_level="metrics"
    )


def test_sharded_result_round_trips_through_cache(tmp_path):
    scenario = replace(small_grid()[0], replications=3, shards=2)
    cache = ResultCache(tmp_path)
    runner = SweepRunner(jobs=1, cache=cache)
    cold = runner.run(scenario, trace_level="metrics")
    warm = runner.run(scenario, trace_level="metrics")
    assert cache.stats.stores == 1 and cache.stats.hits == 1
    assert cold.shard_count == 2
    assert warm.shard_count == cold.shard_count
    assert warm.shard_horizons == cold.shard_horizons
    assert warm.precision == cold.precision
    # The lean contract: cached sharded results carry no merge samples.
    assert result_to_json(warm) == result_to_json(cold)


def test_sharded_sweep_parallel_identical_to_serial():
    replicated = [replace(scenario, replications=2, shards=2, name="") for scenario in small_grid()[:2]]
    scenarios = replicated + small_grid()[2:]
    serial = SweepRunner(jobs=1).run_sweep(scenarios, trace_level="metrics")
    with SweepRunner(jobs=2) as runner:
        parallel = runner.run_sweep(scenarios, trace_level="metrics")
    assert results_fingerprint(serial) == results_fingerprint(parallel)


# -- schema v6: the simulation kernel ----------------------------------------------------


def test_cache_key_resolves_kernel(monkeypatch):
    scenario = small_grid()[0]
    # The None default resolves through REPRO_KERNEL and shares the entry
    # with its explicit spelling; the other engine gets its own entry.
    monkeypatch.delenv("REPRO_KERNEL", raising=False)
    assert cache_key(scenario, True, trace_level="metrics") == cache_key(
        replace(scenario, kernel="auto"), True, trace_level="metrics"
    )
    assert cache_key(scenario, True, trace_level="metrics") != cache_key(
        replace(scenario, kernel="event"), True, trace_level="metrics"
    )
    monkeypatch.setenv("REPRO_KERNEL", "event")
    assert cache_key(scenario, True, trace_level="metrics") == cache_key(
        replace(scenario, kernel="event"), True, trace_level="metrics"
    )
    assert cache_key(replace(scenario, kernel="auto"), True, trace_level="metrics") != cache_key(
        replace(scenario, kernel="event"), True, trace_level="metrics"
    )


def test_each_sweep_keys_on_the_kernel_variable_it_starts_with(tmp_path, monkeypatch):
    # A sweep reads REPRO_KERNEL once; the next sweep on the same runner must
    # read it again, not reuse the first sweep's selection.
    scenario = small_grid()[0]
    assert scenario.kernel is None
    cache = ResultCache(tmp_path)
    runner = SweepRunner(jobs=1, cache=cache)
    monkeypatch.delenv("REPRO_KERNEL", raising=False)
    auto = runner.run_sweep([scenario], check_guarantees=True, trace_level="metrics")[0]
    monkeypatch.setenv("REPRO_KERNEL", "event")
    event = runner.run_sweep([scenario], check_guarantees=True, trace_level="metrics")[0]
    assert cache.stats.stores == 2 and cache.stats.hits == 0
    for kernel, result in (("auto", auto), ("event", event)):
        assert cache_key(replace(scenario, kernel=kernel), True, trace_level="metrics") in cache
        assert result.kernel_provenance.resolved == kernel
        assert result.scenario == scenario
    assert event.precision == auto.precision


def test_kernel_result_round_trips_through_cache(tmp_path):
    scenario = replace(small_grid()[0], kernel="auto")
    cache = ResultCache(tmp_path)
    runner = SweepRunner(jobs=1, cache=cache)
    cold = runner.run(scenario, trace_level="metrics")
    warm = runner.run(scenario, trace_level="metrics")
    assert cache.stats.stores == 1 and cache.stats.hits == 1
    assert result_to_json(warm) == result_to_json(cold)
    # Pinning the other engine is a different entry, but the same floats.
    other = runner.run(replace(scenario, kernel="event"), trace_level="metrics")
    assert cache.stats.stores == 2
    assert other.precision == cold.precision
    assert other.total_messages == cold.total_messages


def test_parallel_sweep_pins_resolved_kernel():
    # A worker with a different REPRO_KERNEL must not re-resolve the engine:
    # parallel results equal serial ones even with kernel=None defaults.
    scenarios = [replace(scenario, name="") for scenario in small_grid()]
    serial = SweepRunner(jobs=1).run_sweep(scenarios, trace_level="metrics")
    with SweepRunner(jobs=2) as runner:
        parallel = runner.run_sweep(scenarios, trace_level="metrics")
    assert results_fingerprint(serial) == results_fingerprint(parallel)
    for result, scenario in zip(parallel, scenarios):
        assert result.scenario == scenario  # caller's (unpinned) copy handed back
