"""The paper's primary contribution: the Srikanth-Toueg clock synchronizers.

This subpackage contains the model parameters, the analytic guarantees, the
logical clock abstraction, and the two synchronization algorithms
(authenticated, ``n > 2f``; and non-authenticated via echo broadcast,
``n > 3f``), together with the start-up and join procedures.
"""

from .auth_sync import AuthSyncProcess
from .bounds import (
    AUTH,
    ECHO,
    ParameterError,
    TheoreticalBounds,
    acceptance_latency,
    acceptance_spread,
    accuracy_excess,
    beta_max,
    beta_min,
    envelope_constants,
    gamma_max,
    gamma_min,
    long_run_rate_bounds,
    max_adjustment,
    messages_per_round_per_process,
    messages_per_round_total,
    precision_bound,
    require_valid,
    startup_precision_bound,
    theoretical_bounds,
    validate,
)
from .clock import AdjustmentResult, LogicalClock
from .join import join_latency_bound, join_time, joined
from .messages import (
    ClockSample,
    EchoMessage,
    GarbageMessage,
    InitMessage,
    Message,
    RoundContent,
    SignatureBundle,
    SignedRound,
    SyncPulse,
)
from .params import SyncParams, default_alpha, params_for
from .process import ClockSyncProcess
from .smoothing import (
    SmoothedClock,
    default_catch_up_rate,
    max_lag,
    smooth_all,
    smooth_clock,
    smoothed_skew,
)
from .startup import startup_completion_bound, staggered_boot_times
from .unauth_sync import EchoSyncProcess

__all__ = [
    "SyncParams",
    "params_for",
    "default_alpha",
    "AUTH",
    "ECHO",
    "ParameterError",
    "TheoreticalBounds",
    "theoretical_bounds",
    "validate",
    "require_valid",
    "precision_bound",
    "startup_precision_bound",
    "acceptance_spread",
    "acceptance_latency",
    "beta_min",
    "beta_max",
    "gamma_min",
    "gamma_max",
    "long_run_rate_bounds",
    "accuracy_excess",
    "envelope_constants",
    "max_adjustment",
    "messages_per_round_per_process",
    "messages_per_round_total",
    "LogicalClock",
    "AdjustmentResult",
    "ClockSyncProcess",
    "AuthSyncProcess",
    "EchoSyncProcess",
    "Message",
    "RoundContent",
    "SignedRound",
    "SignatureBundle",
    "InitMessage",
    "EchoMessage",
    "ClockSample",
    "SyncPulse",
    "GarbageMessage",
    "SmoothedClock",
    "smooth_clock",
    "smooth_all",
    "default_catch_up_rate",
    "max_lag",
    "smoothed_skew",
    "staggered_boot_times",
    "startup_completion_bound",
    "join_latency_bound",
    "join_time",
    "joined",
]
