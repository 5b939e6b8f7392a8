"""Experiment runners: one module per reproduced claim (indexed in docs/experiments.md).

Every experiment exposes ``run_experiment(quick=True)`` returning one
:class:`~repro.analysis.report.Table` or a list of them.  The registry below
is what the benchmark harness, the examples and the EXPERIMENTS.md generator
iterate over, so all three always agree on what was run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

from ..analysis.report import Table
from . import (
    e01_precision,
    e02_accuracy,
    e03_resilience_auth,
    e04_resilience_echo,
    e05_period,
    e06_startup,
    e07_join,
    e08_messages,
    e09_scaling,
    e10_adversaries,
    e11_ablation,
    e12_baselines,
    e13_shards,
    e14_executors,
    e15_fleet,
)

Runner = Callable[[bool], Union[Table, list[Table]]]


@dataclass(frozen=True)
class Experiment:
    """One reproduced claim: an id, a description, and its runner."""

    id: str
    claim: str
    runner: Runner

    def run(self, quick: bool = True) -> list[Table]:
        """Run the experiment and always return a list of tables."""
        result = self.runner(quick)
        return result if isinstance(result, list) else [result]


EXPERIMENTS: dict[str, Experiment] = {
    "E1": Experiment("E1", "Agreement / precision bound of the authenticated algorithm", e01_precision.run_experiment),
    "E2": Experiment("E2", "Optimal accuracy (rate envelope, fault tolerance of accuracy)", e02_accuracy.run_experiment),
    "E3": Experiment("E3", "Resilience threshold n > 2f of the authenticated algorithm", e03_resilience_auth.run_experiment),
    "E4": Experiment("E4", "Resilience threshold n > 3f of the echo algorithm", e04_resilience_echo.run_experiment),
    "E5": Experiment("E5", "Resynchronization period bounds", e05_period.run_experiment),
    "E6": Experiment("E6", "Start-up from an unsynchronized state", e06_startup.run_experiment),
    "E7": Experiment("E7", "Integration (join) of a late-starting process", e07_join.run_experiment),
    "E8": Experiment("E8", "Message complexity per round", e08_messages.run_experiment),
    "E9": Experiment("E9", "Precision scaling in tdel and rho*P", e09_scaling.run_experiment),
    "E10": Experiment("E10", "Robustness against every tolerated Byzantine strategy", e10_adversaries.run_experiment),
    "E11": Experiment("E11", "Ablations: adjustment constant alpha, monotonic variant", e11_ablation.run_experiment),
    "E12": Experiment("E12", "Head-to-head comparison with baseline synchronizers", e12_baselines.run_experiment),
    "E13": Experiment("E13", "Shard-plan invariance of replicated worst-case statistics", e13_shards.run_experiment),
    "E14": Experiment("E14", "Executor-backend invariance and worker-crash recovery", e14_executors.run_experiment),
    "E15": Experiment("E15", "Fleet churn invariance", e15_fleet.run_experiment),
}


def run_all(quick: bool = True) -> dict[str, list[Table]]:
    """Run every experiment and return its tables keyed by experiment id."""
    return {exp_id: experiment.run(quick) for exp_id, experiment in EXPERIMENTS.items()}


__all__ = ["Experiment", "EXPERIMENTS", "run_all"]
