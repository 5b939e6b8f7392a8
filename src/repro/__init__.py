"""repro -- a reproduction of "Optimal Clock Synchronization" (Srikanth & Toueg, PODC 1985).

The package provides:

* :mod:`repro.sim` -- a discrete-event simulator with adversarial message
  delays and drifting hardware clocks,
* :mod:`repro.crypto` -- simulated digital signatures / PKI,
* :mod:`repro.broadcast` -- the authenticated and echo broadcast primitives,
* :mod:`repro.core` -- the Srikanth-Toueg synchronizers (authenticated,
  ``n > 2f``; non-authenticated, ``n > 3f``), start-up, join, and the analytic
  precision/accuracy bounds,
* :mod:`repro.faults` -- Byzantine behaviours and adversary strategies,
* :mod:`repro.baselines` -- Lundelius-Welch, Lamport-Melliar-Smith,
  sync-to-max and free-running baselines,
* :mod:`repro.analysis` -- exact skew/accuracy measurement and guarantee
  verification,
* :mod:`repro.workloads` / :mod:`repro.experiments` -- scenarios, sweeps, and
  the runners behind every reproduced table.

Quickstart
----------
>>> from repro import params_for, Scenario, run_scenario
>>> params = params_for(n=7, authenticated=True, rho=1e-4, tdel=0.01, period=1.0)
>>> result = run_scenario(Scenario(params=params, algorithm="auth", attack="eager", rounds=10))
>>> result.precision <= result.guarantees.by_name("precision").bound
True
"""

from .analysis import (
    GuaranteeReport,
    Table,
    accuracy_summary,
    max_skew,
    steady_state_skew,
    verify_guarantees,
)
from .core import (
    AUTH,
    ECHO,
    AuthSyncProcess,
    EchoSyncProcess,
    LogicalClock,
    ParameterError,
    SyncParams,
    TheoreticalBounds,
    default_alpha,
    params_for,
    precision_bound,
    theoretical_bounds,
)
from .crypto import KeyStore, Signature, sign
from .sim import (
    FixedRateClock,
    HardwareClock,
    PiecewiseLinearClock,
    Simulation,
    Trace,
    drifting_clock,
)
from .sim.kernel import KERNELS, resolve_kernel
from .runner import (
    Executor,
    LocalPoolExecutor,
    ResultCache,
    SSHExecutor,
    SubprocessWorkerExecutor,
    SweepRunner,
)
from .sim.recorder import OnlineMetricsSummary, merge_summaries
from .workloads import Scenario, ScenarioResult, build_cluster, run_scenario

__version__ = "1.7.0"

__all__ = [
    "__version__",
    # parameters and bounds
    "SyncParams",
    "params_for",
    "default_alpha",
    "TheoreticalBounds",
    "theoretical_bounds",
    "precision_bound",
    "ParameterError",
    "AUTH",
    "ECHO",
    # algorithms
    "AuthSyncProcess",
    "EchoSyncProcess",
    "LogicalClock",
    # substrate
    "Simulation",
    "Trace",
    "HardwareClock",
    "FixedRateClock",
    "PiecewiseLinearClock",
    "drifting_clock",
    "KERNELS",
    "resolve_kernel",
    "KeyStore",
    "Signature",
    "sign",
    # sweep execution
    "SweepRunner",
    "Executor",
    "LocalPoolExecutor",
    "SubprocessWorkerExecutor",
    "SSHExecutor",
    "ResultCache",
    "OnlineMetricsSummary",
    "merge_summaries",
    # scenarios and analysis
    "Scenario",
    "ScenarioResult",
    "build_cluster",
    "run_scenario",
    "max_skew",
    "steady_state_skew",
    "accuracy_summary",
    "verify_guarantees",
    "GuaranteeReport",
    "Table",
]
