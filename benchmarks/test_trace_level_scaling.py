"""Benchmark: the metrics-only observation path on a 4x-scale E9-style grid.

The E1-E12 reproduction grids run at n = 7; this benchmark pushes an
E9-style precision-scaling scenario to n = 28 (four times the reproduction
scale) through ``trace_level="metrics"``.  Two properties are asserted:

* the measured worst-case skew still respects the analytic bound at scale,
* the streaming recorder's retained state is *identical* after short and
  long runs -- peak observation memory is O(n), independent of run length,
  which is what lets scaling sweeps grow beyond the full-trace ceiling.
"""

from conftest import QUICK_DEFAULT

from repro.core.bounds import AUTH, precision_bound
from repro.experiments.common import adversarial_scenario, default_params
from repro.sim.recorder import OnlineMetricsRecorder
from repro.workloads.scenarios import build_cluster, run_scenario

#: Four times the n = 7 grid every reproduction experiment runs at.
SCALED_N = 28


def _scaled_scenario(rounds: int, seed: int = 82):
    return adversarial_scenario(
        default_params(SCALED_N, authenticated=True),
        "auth",
        attack="skew_max",
        rounds=rounds,
        seed=seed,
    )


def test_metrics_only_scaling_run(benchmark):
    rounds = 4 if QUICK_DEFAULT else 12
    scenario = _scaled_scenario(rounds)
    result = benchmark.pedantic(
        run_scenario, args=(scenario,), kwargs={"trace_level": "metrics"}, iterations=1, rounds=1
    )
    assert result.trace is None
    assert result.completed_round >= rounds
    bound = precision_bound(result.params, AUTH)
    assert result.precision <= bound + 1e-9
    print(
        f"\n[trace-level scaling] n={SCALED_N} rounds={rounds}: "
        f"skew {result.precision:.6g} <= bound {bound:.6g}, "
        f"{result.total_messages} messages"
    )


def test_metrics_memory_constant_in_run_length(benchmark):
    """The streaming core's state is run-length independent.

    The one deliberate exception is the window-rate sample buffer (exact
    window extremes need the steady-window breakpoint samples): it grows with
    the number of *resynchronizations* -- two floats per adjustment, nothing
    per message.  The core bookkeeping that is touched per event stays
    exactly constant.
    """
    short_rounds = 3 if QUICK_DEFAULT else 6
    long_rounds = 4 * short_rounds

    def observe(rounds: int) -> tuple[int, int]:
        scenario = _scaled_scenario(rounds)
        handles = build_cluster(scenario, trace_level="metrics")
        handles.sim.run_until_round(scenario.rounds, t_max=scenario.horizon())
        recorder = handles.sim.recorder
        assert isinstance(recorder, OnlineMetricsRecorder)
        return recorder.retained_state_size(), recorder.retained_window_samples()

    short_core, short_win = benchmark.pedantic(observe, args=(short_rounds,), iterations=1, rounds=1)
    long_core, long_win = observe(long_rounds)
    assert long_core == short_core, (
        f"streaming recorder core state grew with run length: {short_core} -> {long_core}"
    )
    # Window samples scale with resynchronization count only: 4x the rounds
    # must stay within ~4x the samples (never with the O(n^2)-per-round
    # message/event volume, which would be two orders of magnitude more).
    assert long_win <= 4 * short_win + 8 * SCALED_N, (
        f"window-rate samples grew faster than the resynchronization count: "
        f"{short_win} ({short_rounds} rounds) -> {long_win} ({long_rounds} rounds)"
    )

    print(
        f"\n[trace-level scaling] retained recorder entries at n={SCALED_N}: "
        f"core {short_core} ({short_rounds} rounds) == {long_core} ({long_rounds} rounds); "
        f"window samples {short_win} -> {long_win} (resync-bound)"
    )
