"""Checks of the benchmark itself.  Run explicitly (tier-1 ``testpaths`` stays ``tests``)::

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import layers  # noqa: E402
import run  # noqa: E402
import timing  # noqa: E402
import workloads  # noqa: E402
from repro import obs  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def manifest() -> dict:
    with (ROOT / "BENCHMARK.json").open("r", encoding="utf-8") as handle:
        return json.load(handle)


def test_manifest_meets_the_contract(manifest):
    assert set(manifest) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert manifest["paths"] == ["perfbench"]
    assert 2 <= len(manifest["workloads"]) <= 8
    assert 1 <= len(manifest["end_to_end"]) <= 16
    assert 1 <= len(manifest["per_layer"]) <= 128
    assert isinstance(manifest["run_seconds"], int) and 1 <= manifest["run_seconds"] <= 60
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in manifest[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for entry in manifest["workloads"]:
        assert set(entry) == {"name", "why"} and len(entry["why"]) <= 200 and "\n" not in entry["why"]
    for entry in manifest["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    for entry in manifest["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    for entry in manifest["end_to_end"] + manifest["per_layer"]:
        assert UNIT.fullmatch(entry["unit"]) and entry["better"] in ("lower", "higher")
    setup = next(entry for entry in manifest["end_to_end"] if entry["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(entry["bound"] for entry in manifest["end_to_end"])


def test_manifest_names_what_the_code_measures(manifest):
    assert {e["name"]: e["why"] for e in manifest["workloads"]} == {
        name: cls.why for name, cls in workloads.WORKLOADS.items()
    }
    assert {e["name"]: (e["unit"], e["better"]) for e in manifest["end_to_end"]} == run.END_TO_END
    assert {e["name"]: (e["unit"], e["better"]) for e in manifest["per_layer"]} == layers.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
def test_every_named_metric_is_printed_with_unit_and_finite_value(manifest, trace):
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "all", "--passes", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, cwd=ROOT,
    )
    assert done.returncode == 0, done.stderr
    results = [json.loads(line) for line in done.stdout.splitlines() if line.startswith('{"correct"')]
    assert len(results) == len(manifest["workloads"])
    for entry in manifest["workloads"]:
        assert f"== {entry['name']} (" in done.stdout
    expected = {e["name"]: e["unit"] for e in manifest["per_layer" if trace else "end_to_end"]}
    for result in results:
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
        assert {name: metric["unit"] for name, metric in result["metrics"].items()} == expected
        assert all(math.isfinite(metric["value"]) for metric in result["metrics"].values())
        if not trace:
            assert all(metric["value"] > 0 for metric in result["metrics"].values())
    for line in ("# commit:", "# nproc:", "# cpu_model:", "# python:", "# numpy:", "# load_1min:", "# seed:", "# env:"):
        assert line in done.stdout


def test_floor_is_the_sum_of_each_segments_best_and_is_normalised_by_the_spins():
    first, second = timing.Meter(), timing.Meter()
    first.segments = {"E1": (1.0, 0.9, 0.0034), "E10": (5.0, 4.0, 0.0017), "auth_full.0": (0.2, 0.2, 0.0017)}
    second.segments = {"E1": (2.0, 0.8, 0.0017), "E10": (4.0, 4.5, 0.0051), "auth_full.0": (0.3, 0.1, 0.0034)}
    assert timing.floor_seconds([first, second], timing.WALL) == pytest.approx(1.0 + 4.0 + 0.2)
    assert timing.floor_seconds([first, second], timing.CPU) == pytest.approx(0.8 + 4.0 + 0.1)
    assert timing.floor_seconds([first, second], group="E1") == pytest.approx(1.0)
    assert timing.floor_seconds([first, second], group="auth_full") == pytest.approx(0.2)
    assert timing.host_slowdown([first, second]) == pytest.approx(1.0)
    assert timing.mean_slowdown(second) == pytest.approx(2.0)
    assert timing.spin() > 0


def test_scenario_builders_are_pure_functions_of_the_seed():
    builders = (
        workloads.event_mixed_groups,
        lambda seed: workloads.vector_configurations(seed, shards=1),
        workloads.fleet_sweeps,
        workloads.cache_groups,
    )
    for build in builders:
        assert build(3) == build(3)
        assert build(3) != build(4)


def test_wrappers_are_fully_uninstalled_after_a_traced_block():
    before = [(owner, attribute, owner.__dict__[attribute]) for owner, attribute, _ in layers.WRAPPED]
    with layers.traced() as spans:
        assert all(owner.__dict__[attribute] is not original for owner, attribute, original in before)
        scenario = workloads.cache_groups(0)["n7_eager"][0]
        workloads.SweepRunner(jobs=1).run_sweep([scenario], trace_level="metrics")
    assert {"runner.sweep", "scenario.run", "pb:vectorized.run_lanes"} <= {span["name"] for span in spans}
    assert all(owner.__dict__[attribute] is original for owner, attribute, original in before)
    assert not obs.enabled() and not obs.metrics_enabled()
