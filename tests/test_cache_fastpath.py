"""The result cache's hit path: single-pass keys, framed entries, damaged entries.

Two contracts are pinned here.  *Key identity*: the text ``cache_key``
hashes is byte-identical to the canonical tuple an oracle in this file builds
on its own from ``dataclasses.fields`` (and ``scenario_to_dict`` to the
``dataclasses.asdict`` builder it replaced) -- for generated scenarios over
every field, not a re-pinned golden value.  *Damaged entries*: whatever is on disk under a key,
``ResultCache.get`` returns the stored result or ``None`` -- never another
number, never an exception -- and a damaged file is deleted and counted as a
miss.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro
from repro.analysis.serialize import params_to_dict, result_to_json, scenario_to_dict
from repro.core.params import SyncParams
from repro.experiments.common import adversarial_scenario, default_params
from repro.runner import ResultCache, SweepRunner, cache_key
from repro.runner import cache as cache_module
from repro.sim.kernel import KERNELS, resolve_kernel
from repro.workloads.scenarios import (
    ALL_ALGORITHMS,
    CLOCK_MODES,
    DELAY_MODES,
    Scenario,
    resolve_shards,
)

SALT = "fixed-test-salt"
TRACE_LEVELS = ("full", "metrics")


# -- the oracles: asdict for the serializer, dataclasses.fields for the key ----------


def oracle_scenario_to_dict(scenario: Scenario) -> dict:
    data = dataclasses.asdict(scenario)
    params = dataclasses.asdict(scenario.params)
    params["alpha_value"] = scenario.params.alpha_value
    data["params"] = params
    return data


#: Scenario fields the key does not take as given: the cosmetic name, the
#: nested params (keyed field by field) and the two keyed resolved.
NOT_KEYED_AS_GIVEN = {"name", "params", "shards", "kernel"}


def oracle_key_text(scenario: Scenario, check: bool, trace_level: str, salt: str) -> str:
    """The documented v12 key text: the ``repr`` of one flat canonical tuple."""
    head = (salt, bool(check), trace_level, resolve_shards(scenario), resolve_kernel(scenario))
    given = tuple(
        getattr(scenario, field.name)
        for field in dataclasses.fields(Scenario)
        if field.name not in NOT_KEYED_AS_GIVEN
    )
    params = tuple(getattr(scenario.params, field.name) for field in dataclasses.fields(SyncParams))
    return repr(head + given + params + (scenario.params.alpha_value,))


# -- a scenario strategy over every field ---------------------------------------------

finite = {"allow_nan": False, "allow_infinity": False}


@st.composite
def params_kwargs(draw) -> dict:
    n = draw(st.integers(min_value=1, max_value=60))
    tdel = draw(st.floats(min_value=1e-6, max_value=1.0, **finite))
    return {
        "n": n,
        "f": draw(st.integers(min_value=0, max_value=n - 1)),
        "rho": draw(st.floats(min_value=0.0, max_value=0.1, **finite)),
        "tdel": tdel,
        "tmin": draw(st.floats(min_value=0.0, max_value=tdel, **finite)),
        "period": draw(st.floats(min_value=1e-3, max_value=100.0, **finite)),
        "alpha": draw(st.none() | st.floats(min_value=0.0, max_value=1.0, **finite)),
        "initial_offset_spread": draw(st.floats(min_value=0.0, max_value=1.0, **finite)),
    }


@st.composite
def scenario_kwargs(draw) -> dict:
    params = SyncParams(**draw(params_kwargs()))
    return {
        "params": params,
        "algorithm": draw(st.sampled_from(ALL_ALGORITHMS)),
        "name": draw(st.text(max_size=12)),
        "rounds": draw(st.integers(min_value=1, max_value=500)),
        "attack": draw(st.none() | st.sampled_from(["eager", "skew_max", "two_faced", "forge_flood"])),
        "actual_faults": draw(st.none() | st.integers(min_value=0, max_value=params.n - 1)),
        "clock_mode": draw(st.sampled_from(CLOCK_MODES)),
        "delay_mode": draw(st.sampled_from(DELAY_MODES)),
        "use_startup": draw(st.booleans()),
        "boot_spread": draw(st.floats(min_value=0.0, max_value=10.0, **finite)),
        "monotonic": draw(st.booleans()),
        "joiner_count": draw(st.integers(min_value=0, max_value=5)),
        "join_time": draw(st.floats(min_value=0.0, max_value=50.0, **finite)),
        "grace": draw(st.floats(min_value=0.0, max_value=5.0, **finite)),
        "abort_unreachable": draw(st.booleans()),
        "replications": draw(st.integers(min_value=1, max_value=16)),
        "shards": draw(st.none() | st.integers(min_value=1, max_value=16)),
        "sample_messages": draw(st.none() | st.integers(min_value=1, max_value=1000)),
        "kernel": draw(st.none() | st.sampled_from(KERNELS)),
        "seed": draw(st.integers(min_value=0, max_value=2**63)),
    }


def scenarios():
    return scenario_kwargs().map(lambda kwargs: Scenario(**kwargs))


MANY = settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def field_names(cls) -> set:
    return {field.name for field in dataclasses.fields(cls)}


@given(scenario=scenario_kwargs(), params=params_kwargs())
@settings(max_examples=5, deadline=None)
def test_strategy_draws_every_field(scenario, params):
    """Every field is drawn explicitly, so a new one cannot hide behind its default."""
    assert set(scenario) == field_names(Scenario)
    assert set(params) == field_names(SyncParams)


@given(scenario=scenarios())
@MANY
def test_scenario_to_dict_equals_asdict_oracle(scenario):
    ours, oracle = scenario_to_dict(scenario), oracle_scenario_to_dict(scenario)
    assert ours == oracle
    assert list(ours) == list(oracle)
    assert list(ours["params"]) == list(oracle["params"])
    assert params_to_dict(scenario.params) == oracle["params"]


class RecordingHashlib:
    """Stands in for the cache module's ``hashlib``: keeps what ``cache_key`` feeds to SHA-256."""

    def __init__(self) -> None:
        self.hashed: list[bytes] = []

    def sha256(self, data: bytes):
        self.hashed.append(data)
        return hashlib.sha256(data)


@given(scenario=scenarios(), check=st.booleans(), trace_level=st.sampled_from(TRACE_LEVELS))
@MANY
def test_hashed_key_text_equals_fields_oracle(scenario, check, trace_level):
    recorder = RecordingHashlib()
    with mock.patch.object(cache_module, "hashlib", recorder):
        key = cache_key(scenario, check, trace_level, SALT)
    oracle = oracle_key_text(scenario, check, trace_level, SALT)
    assert [data.decode() for data in recorder.hashed] == [oracle]
    assert key == hashlib.sha256(oracle.encode()).hexdigest()


#: Types whose ``repr`` is canonical: equal values print alike in every process.
CANONICAL_REPR_TYPES = (type(None), bool, int, float, str)


@given(scenario=scenario_kwargs(), params=params_kwargs())
@settings(max_examples=50, deadline=None)
def test_every_drawn_field_value_has_a_canonical_repr(scenario, params):
    """The key hashes a ``repr``, so only scalars may reach it.

    A field whose value is a mapping or a set (an attack or delay spec, say)
    must extend the key's canonical form before it can be keyed, instead of
    hashing an order-dependent ``repr``; adding one to the strategy fails here.
    """
    drawn = {name: value for name, value in scenario.items() if name != "params"}
    drawn.update(params)
    for name, value in drawn.items():
        assert type(value) in CANONICAL_REPR_TYPES, (name, value)
    assert type(SyncParams(**params).alpha_value) is float


def benchmark_shaped_cells() -> list[Scenario]:
    """The shape of perfbench's cache cells: auth, three sizes x three attacks x seeds."""
    return [
        adversarial_scenario(default_params(n, authenticated=True), "auth", attack=attack, rounds=6, seed=seed)
        for n in (7, 10, 13)
        for attack in ("eager", "skew_max", "two_faced")
        for seed in range(5)
    ]


def test_keys_of_benchmark_shaped_cells_equal_oracle():
    for scenario in benchmark_shaped_cells():
        for level in TRACE_LEVELS:
            expected = hashlib.sha256(oracle_key_text(scenario, True, level, SALT).encode()).hexdigest()
            assert cache_key(scenario, True, level, SALT) == expected


def test_serializers_leave_the_scenario_untouched_and_independent():
    scenario = benchmark_shaped_cells()[0]
    before = dataclasses.replace(scenario)
    first = scenario_to_dict(scenario)
    first["params"]["n"] = -1
    first["rounds"] = -1
    assert scenario == before
    assert scenario_to_dict(scenario) == oracle_scenario_to_dict(scenario)


# -- every field reaches the key ------------------------------------------------------

BASE = Scenario(
    params=SyncParams(n=7, f=2, alpha=0.02),
    attack="eager",
    rounds=6,
    replications=4,
    shards=2,
    kernel="event",
)

#: One alternative value per field.  A field added to either dataclass must be
#: added here, and changing it must change the key.
SCENARIO_VARIANTS = {
    "params": SyncParams(n=8, f=2, alpha=0.02),
    "algorithm": "echo",
    "name": "another label",
    "rounds": 7,
    "attack": "skew_max",
    "actual_faults": 1,
    "clock_mode": "random",
    "delay_mode": "max",
    "use_startup": True,
    "boot_spread": 0.5,
    "monotonic": True,
    "joiner_count": 1,
    "join_time": 2.0,
    "grace": 0.25,
    "abort_unreachable": True,
    "replications": 5,
    "shards": 3,
    "sample_messages": 10,
    "kernel": "auto",
    "seed": 1,
}
PARAMS_VARIANTS = {
    "n": 8,
    "f": 1,
    "rho": 2e-4,
    "tdel": 0.02,
    "tmin": 0.001,
    "period": 2.0,
    "alpha": 0.03,
    "initial_offset_spread": 0.004,
}
#: Cosmetic by contract: the runner re-attaches the requested name on a hit.
UNKEYED = {"name"}


def test_every_scenario_and_params_field_reaches_the_key():
    assert set(SCENARIO_VARIANTS) == field_names(Scenario)
    assert set(PARAMS_VARIANTS) == field_names(SyncParams)
    base_key = cache_key(BASE, True, "metrics", SALT)
    for name, value in SCENARIO_VARIANTS.items():
        changed = cache_key(dataclasses.replace(BASE, **{name: value}), True, "metrics", SALT)
        assert (changed == base_key) == (name in UNKEYED), name
    for name, value in PARAMS_VARIANTS.items():
        params = dataclasses.replace(BASE.params, **{name: value})
        assert cache_key(dataclasses.replace(BASE, params=params), True, "metrics", SALT) != base_key, name
    assert cache_key(BASE, False, "metrics", SALT) != base_key
    assert cache_key(BASE, True, "full", SALT) != base_key
    assert cache_key(BASE, True, "metrics", "another salt") != base_key


def test_resolved_defaults_share_their_explicit_spelling(monkeypatch):
    monkeypatch.delenv("REPRO_KERNEL", raising=False)
    monkeypatch.setenv("REPRO_SHARDS", "2")
    implicit = dataclasses.replace(BASE, shards=None, kernel=None)
    explicit = dataclasses.replace(BASE, shards=2, kernel="auto")
    assert cache_key(implicit, True, "metrics", SALT) == cache_key(explicit, True, "metrics", SALT)
    # An explicit alpha equal to the default is a different description
    # (alpha=None vs a number), exactly as under the asdict builder.
    defaulted = dataclasses.replace(BASE, params=dataclasses.replace(BASE.params, alpha=None))
    spelled = dataclasses.replace(
        BASE, params=dataclasses.replace(BASE.params, alpha=defaulted.params.alpha_value)
    )
    assert cache_key(defaulted, True, "metrics", SALT) != cache_key(spelled, True, "metrics", SALT)


_KEYS_SCRIPT = """
import sys
sys.path.insert(0, {tests_dir!r})
from test_cache_fastpath import SALT, benchmark_shaped_cells
from repro.runner import cache_key
for scenario in benchmark_shaped_cells():
    print(cache_key(scenario, True, "metrics", SALT))
"""


def test_keys_agree_across_hash_seeds():
    """Keys never touch the randomized builtin ``hash``: two hash seeds, one key list."""
    outputs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(repro.__file__).resolve().parent.parent), env.get("PYTHONPATH", "")]
        )
        env.pop("REPRO_KERNEL", None)
        script = _KEYS_SCRIPT.format(tests_dir=str(Path(__file__).resolve().parent))
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120, check=True
        )
        outputs.append(done.stdout.split())
    here = [cache_key(scenario, True, "metrics", SALT) for scenario in benchmark_shaped_cells()]
    assert outputs[0] == outputs[1] == here


# -- the entry frame and damaged entries ----------------------------------------------


def fingerprint(result) -> str:
    # Not ``==``: a metrics-level result may carry nan window rates.
    return result_to_json(result, include_trace=True)


STORED = Scenario(params=default_params(4, authenticated=True), attack="eager", rounds=4, seed=5)
#: The documented v9 header, spelled out here rather than read from the module: magic + 16 digest bytes.
HEADER = len(cache_module._MAGIC) + 16


@pytest.fixture
def stored(tmp_path):
    """``(cache, key, entry path, entry bytes, fingerprint)`` of one real stored result."""
    cache = ResultCache(tmp_path)
    result = SweepRunner(jobs=1, cache=cache).run(STORED, trace_level="metrics")
    (path,) = tmp_path.glob("*/*.pkl")
    return cache, path.stem, path, path.read_bytes(), fingerprint(result)


def frame(payload: bytes) -> bytes:
    """The documented v9 entry frame, built independently of the module's writer."""
    return cache_module._MAGIC + hashlib.blake2b(payload, digest_size=16).digest() + payload


def test_entry_is_magic_digest_pickle(stored):
    cache, key, path, entry, original = stored
    assert path.parent.name == key[:2] and path.parent.parent == cache.directory
    assert entry == frame(entry[HEADER:])
    assert fingerprint(pickle.loads(entry[HEADER:])) == original
    assert fingerprint(cache.get(key)) == original
    assert key in cache and "0" * 64 not in cache


def damaged_entries(entry: bytes):
    rng = random.Random(14)
    for _ in range(300):
        position = rng.randrange(len(entry) * 8)
        flipped = bytearray(entry)
        flipped[position // 8] ^= 1 << (position % 8)
        yield "bit flip", bytes(flipped)
    for _ in range(100):
        yield "truncation", entry[: rng.randrange(len(entry))]
    for _ in range(100):
        yield "random bytes", rng.randbytes(rng.randrange(1, 2 * len(entry)))
    foreign = pickle.dumps({"precision": 0.0}, protocol=pickle.HIGHEST_PROTOCOL)
    yield "bare pickle of a non-result", foreign
    yield "framed pickle of a non-result", frame(foreign)
    yield "framed pickle of a vanished class", frame(b"cno_such_module_for_cache_test\nResult\n.")
    yield "bare pickle of the result (pre-v9 layout)", entry[HEADER:]


def test_damaged_entry_is_a_miss_never_a_number_never_a_crash(stored):
    cache, key, path, entry, original = stored
    served_damaged = 0
    for kind, damaged in damaged_entries(entry):
        path.write_bytes(damaged)
        misses = cache.stats.misses
        result = cache.get(key)  # must not raise
        if result is not None:
            served_damaged += 1
            assert fingerprint(result) == original, kind
        else:
            assert not path.exists(), f"{kind}: damaged file left behind"
            assert cache.stats.misses == misses + 1, kind
    assert served_damaged == 0  # the digest lets none of the 500+ through
    path.write_bytes(entry)
    assert fingerprint(cache.get(key)) == original


def test_unreadable_entry_is_a_miss(stored):
    cache, key, path, entry, original = stored
    path.unlink()
    path.mkdir()  # open() raises IsADirectoryError, and unlink() cannot remove it
    assert cache.get(key) is None
    assert cache.stats.misses == 2
    path.rmdir()
    cache.put(key, pickle.loads(entry[HEADER:]))
    assert fingerprint(cache.get(key)) == original


def test_damaged_entry_is_recomputed_and_stored_again(stored):
    cache, key, path, entry, original = stored
    path.write_bytes(entry[:-1] + bytes([entry[-1] ^ 1]))
    again = SweepRunner(jobs=1, cache=cache).run(STORED, trace_level="metrics")
    assert fingerprint(again) == original
    assert path.read_bytes() == entry
    assert cache.stats.as_dict() == {"hits": 0, "misses": 2, "stores": 2}


def test_reassigned_directory_is_honoured_by_the_next_call(stored, tmp_path):
    cache, key, path, entry, original = stored
    elsewhere = tmp_path / "elsewhere"
    cache.directory = elsewhere
    assert cache.get(key) is None and key not in cache
    cache.put(key, pickle.loads(entry[HEADER:]))
    assert (elsewhere / key[:2] / f"{key}.pkl").exists() and key in cache
    assert fingerprint(cache.get(key)) == original
    path.unlink()
    cache.directory = path.parent.parent
    assert cache.get(key) is None
    cache.directory = elsewhere
    assert fingerprint(cache.get(key)) == original


def test_clear_removes_orphaned_temp_files_and_counts_only_entries(stored):
    cache, key, path, entry, original = stored
    orphan = path.parent / "tmpabc123.tmp"
    orphan.write_bytes(entry[:100])
    assert len(cache) == 1
    assert cache.clear() == 1
    assert not orphan.exists() and not path.exists()


@pytest.mark.parametrize("interruption", [KeyboardInterrupt, SystemExit, MemoryError])
def test_put_interrupted_before_rename_leaves_no_temp_file(stored, monkeypatch, interruption):
    cache, key, path, entry, original = stored
    result = cache.get(key)
    path.unlink()

    def interrupted(src, dst):
        raise interruption()

    monkeypatch.setattr(os, "replace", interrupted)
    with pytest.raises(interruption):
        cache.put(key, result)
    assert list(cache.directory.glob("*/*")) == []
    assert cache.stats.stores == 1  # only the fixture's store


def test_put_stays_best_effort_on_storage_errors(stored, monkeypatch):
    cache, key, path, entry, original = stored
    result = cache.get(key)
    path.unlink()

    def full_disk(src, dst):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(os, "replace", full_disk)
    cache.put(key, result)  # swallowed: the entry simply is not cached
    assert list(cache.directory.glob("*/*")) == []
    assert cache.stats.stores == 1
