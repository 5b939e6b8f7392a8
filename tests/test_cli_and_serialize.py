"""Tests for the command-line interface and the JSON serialization helpers."""

from __future__ import annotations

import json

import pytest

from repro.analysis.serialize import (
    load_result_summary,
    params_to_dict,
    result_to_dict,
    result_to_json,
    save_result,
    trace_to_dict,
)
from repro.cli import main
from repro.core.params import params_for
from repro.runner import reset_runner
from repro.workloads.scenarios import Scenario, run_scenario


@pytest.fixture(autouse=True)
def _isolated_default_runner():
    # CLI commands install the process-wide default runner; drop it after
    # each test so a configured backend (ssh!) cannot leak into other suites.
    yield
    reset_runner()


@pytest.fixture(scope="module")
def sample_result():
    params = params_for(5, authenticated=True, rho=1e-4, tdel=0.01, period=1.0, initial_offset_spread=0.005)
    return run_scenario(Scenario(params=params, algorithm="auth", attack="eager", rounds=4, seed=3))


# -- serialization ---------------------------------------------------------------------


def test_params_to_dict_includes_resolved_alpha():
    params = params_for(5, authenticated=True)
    data = params_to_dict(params)
    assert data["n"] == 5
    assert data["alpha_value"] == pytest.approx(params.alpha_value)


def test_result_to_dict_core_fields(sample_result):
    data = result_to_dict(sample_result)
    assert data["completed_round"] >= 4
    assert data["precision"] == pytest.approx(sample_result.precision)
    assert data["guarantees"]["all_hold"] is True
    assert any(check["name"] == "precision" for check in data["guarantees"]["checks"])
    assert data["scenario"]["algorithm"] == "auth"
    assert "trace" not in data


def test_result_to_dict_with_trace(sample_result):
    data = result_to_dict(sample_result, include_trace=True)
    trace = data["trace"]
    assert trace["total_messages"] == sample_result.total_messages
    pids = [p["pid"] for p in trace["processes"]]
    assert pids == sorted(pids)
    honest = [p for p in trace["processes"] if not p["faulty"]]
    assert all(len(p["resyncs"]) >= 4 for p in honest)
    assert all(len(p["adjustments"]) == len(p["resyncs"]) for p in honest)


def test_result_to_json_is_valid_json(sample_result):
    parsed = json.loads(result_to_json(sample_result))
    assert parsed["messages_per_round"] > 0


def test_save_and_load_roundtrip(sample_result, tmp_path):
    path = save_result(sample_result, tmp_path / "result.json")
    loaded = load_result_summary(path)
    assert loaded["precision"] == pytest.approx(sample_result.precision)


def test_trace_to_dict_standalone(sample_result):
    data = trace_to_dict(sample_result.trace)
    assert data["end_time"] == pytest.approx(sample_result.trace.end_time)
    assert data["message_stats"]


# -- CLI --------------------------------------------------------------------------------


def test_cli_bounds_prints_table(capsys):
    assert main(["bounds", "--n", "7", "--rho", "1e-4"]) == 0
    out = capsys.readouterr().out
    assert "precision" in out
    assert "rate_max" in out


def test_cli_bounds_echo_variant(capsys):
    assert main(["bounds", "--n", "7", "--algorithm", "echo"]) == 0
    assert "echo" in capsys.readouterr().out


def test_cli_run_reports_guarantees(capsys):
    code = main(["run", "--n", "5", "--rounds", "4", "--attack", "eager", "--seed", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "precision" in out
    assert "OK" in out


def test_cli_run_json_output(capsys):
    code = main(["run", "--n", "5", "--rounds", "3", "--json", "--seed", "2"])
    out = capsys.readouterr().out
    assert code == 0
    parsed = json.loads(out)
    assert parsed["completed_round"] >= 3


def test_cli_run_baseline_algorithm(capsys):
    code = main([
        "run", "--n", "7", "--f", "1", "--algorithm", "lundelius_welch",
        "--attack", "silent", "--rounds", "3", "--clock-mode", "random", "--delay-mode", "uniform",
    ])
    assert code == 0
    assert "precision" in capsys.readouterr().out


def test_cli_experiment_quick(capsys):
    assert main(["experiment", "E3", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "resilience" in out.lower()
    assert "rushing_cabal" in out


def test_cli_experiment_unknown_id(capsys):
    assert main(["experiment", "E99"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_cli_list_attacks(capsys):
    assert main(["list-attacks"]) == 0
    out = capsys.readouterr().out
    assert "eager" in out and "rushing_cabal" in out


def test_cli_list_experiments(capsys):
    assert main(["list-experiments"]) == 0
    out = capsys.readouterr().out
    for exp_id in ("E1", "E12"):
        assert exp_id in out


def test_cli_requires_a_command():
    with pytest.raises(SystemExit):
        main([])


def test_cli_ssh_without_hosts_exits_2_with_one_line_error(capsys, monkeypatch):
    """A missing REPRO_SSH_HOSTS is a usage error: one clear sentence on
    stderr and exit code 2, never an SSHConfigError traceback."""
    monkeypatch.delenv("REPRO_SSH_HOSTS", raising=False)
    assert main(["run", "--executor", "ssh", "--rounds", "3"]) == 2
    captured = capsys.readouterr()
    assert "REPRO_SSH_HOSTS" in captured.err
    assert len(captured.err.strip().splitlines()) == 1
    # `repro experiment` fails the same way (before any experiment runs).
    assert main(["experiment", "E3", "--quick", "--executor", "ssh"]) == 2
    assert "REPRO_SSH_HOSTS" in capsys.readouterr().err


def test_cli_chaos_requires_protocol_backend(capsys):
    assert main(["run", "--rounds", "3", "--chaos", "kill@1"]) == 2
    assert "subprocess" in capsys.readouterr().err


def test_cli_run_chaos_kill_schedule_completes_with_fleet_provenance(capsys):
    code = main([
        "run", "--executor", "subprocess", "--workers", "2",
        "--replications", "4", "--shards", "4", "--rounds", "4",
        "--chaos", "kill@1", "--chaos-seed", "3", "--no-cache",
    ])
    captured = capsys.readouterr()
    assert code == 0
    assert "fleet" in captured.out  # provenance row with the scheduler counters
    assert "chaos: kill@1" in captured.err
    assert "respawn" in captured.out or "workers lost" in captured.out


def test_cli_experiment_failure_exits_nonzero(capsys, monkeypatch):
    """Table-generation failure must propagate a nonzero exit (PR-5 review bug)."""
    import repro.cli as cli

    class BoomExperiment:
        claim = "always fails"

        def run(self, quick=False):
            raise RuntimeError("table generation exploded")

    class EmptyExperiment:
        claim = "produces nothing"

        def run(self, quick=False):
            return []

    monkeypatch.setattr(cli, "EXPERIMENTS", {"E1": BoomExperiment(), "E2": EmptyExperiment()})
    assert main(["experiment", "E1", "--quick"]) == 1
    assert "FAILED" in capsys.readouterr().err
    assert main(["experiment", "E2", "--quick"]) == 1
    # An `all` run keeps going past the failure but still exits nonzero.
    assert main(["experiment", "all", "--quick"]) == 1
    err = capsys.readouterr().err
    assert "E1" in err and "E2" in err


def test_cli_run_kernel_flag(capsys):
    code = main([
        "run", "--n", "5", "--rounds", "3", "--seed", "2",
        "--attack", "skew_max", "--kernel", "vector", "--trace-level", "metrics",
    ])
    assert code == 0
    assert "Scenario" in capsys.readouterr().out


def test_cli_kernel_plain_output_is_unchanged(capsys, monkeypatch):
    pytest.importorskip("numpy")
    monkeypatch.delenv("REPRO_KERNEL", raising=False)
    assert main(["kernel"]) == 0
    assert capsys.readouterr().out == (
        "Kernel policy for auth-n7-f3-eager\n"
        "==================================\n"
        "quantity         value                                 \n"
        "---------------  --------------------------------------\n"
        "resolved kernel  auto                                  \n"
        "static verdict   eligible                              \n"
        "serves           vector kernel (may fall back per lane)\n"
    )


@pytest.mark.parametrize(
    "flags, reason",
    [
        (["--startup"], "start-up protocol runs are not vectorized"),
        (["--joiners", "1"], "joiner scenarios are not vectorized"),
        (["--monotonic"], "monotonic (no-backward-correction) ablation is not vectorized"),
        (["--grace", "0.1"], "grace windows past round completion are not vectorized"),
        (["--trace-level", "full"], "full traces require the event loop (vector kernel is metrics-only)"),
    ],
)
def test_cli_kernel_names_every_static_reason(flags, reason, capsys, monkeypatch):
    """The subparser takes ``run``'s scenario flags, so each static reason can be asked about."""
    monkeypatch.delenv("REPRO_KERNEL", raising=False)
    assert main(["kernel", *flags]) == 0
    out = capsys.readouterr().out
    assert "static verdict   ineligible" in out
    assert f"reason           {reason}" in out
    assert "serves           event loop" in out and "fallback note" not in out
    assert main(["kernel", "--kernel", "vector", *flags]) == 0
    assert "serves           event loop, with a recorded fallback note" in capsys.readouterr().out
