"""Discrete-event simulation substrate for the Srikanth-Toueg reproduction.

This subpackage contains everything the clock-synchronization algorithms run
on top of: the event queue, hardware clock models with bounded drift, the
message-passing network with adversarial delay policies, the process
framework, the simulation engine, and execution traces.
"""

from .clocks import (
    FixedRateClock,
    HardwareClock,
    PiecewiseLinearClock,
    drifting_clock,
    fastest_clock,
    rate_bounds,
    slowest_clock,
    spread_offsets,
)
from .engine import Simulation
from .events import EventQueue
from .network import (
    DelayPolicy,
    Envelope,
    FixedDelay,
    FunctionDelay,
    MaxDelay,
    MinDelay,
    Network,
    NetworkStats,
    TargetedDelay,
    UniformDelay,
)
from .process import Process, Timer
from .recorder import (
    FullTraceRecorder,
    MessageSample,
    OnlineMetricsRecorder,
    OnlineMetricsSummary,
    Recorder,
    RecorderError,
)
from .trace import ProcessTrace, ResyncEvent, Trace

__all__ = [
    "EventQueue",
    "HardwareClock",
    "FixedRateClock",
    "PiecewiseLinearClock",
    "drifting_clock",
    "fastest_clock",
    "slowest_clock",
    "rate_bounds",
    "spread_offsets",
    "DelayPolicy",
    "FixedDelay",
    "MaxDelay",
    "MinDelay",
    "UniformDelay",
    "TargetedDelay",
    "FunctionDelay",
    "Network",
    "NetworkStats",
    "Envelope",
    "Process",
    "Timer",
    "Recorder",
    "RecorderError",
    "FullTraceRecorder",
    "MessageSample",
    "OnlineMetricsRecorder",
    "OnlineMetricsSummary",
    "Simulation",
    "Trace",
    "ProcessTrace",
    "ResyncEvent",
]
