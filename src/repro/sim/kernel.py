"""Kernel selection: which engine steps a scenario, and when the vector one may.

PRs 1-5 built the scaling spine (recorder seam, adaptive horizons, a summary
merge algebra, shards, distributed executors), but every worker still stepped the
pure-Python discrete-event loop, so single-run latency caps the large scaling
grids.  This module is the *policy* half of the batched NumPy kernel: it
decides, per scenario, whether the vectorized round-level evaluator
(:mod:`repro.sim.vectorized`) is allowed to replace the event loop.  The
mechanism half -- the array-level round evaluation itself -- lives in
:mod:`repro.sim.vectorized`; the full design note is ``docs/kernel.md``.

Contract
--------

* The event loop is the *parity oracle*.  The vector kernel is only eligible
  for scenario families it provably matches float-for-float -- same
  :class:`~repro.sim.recorder.OnlineMetricsSummary`, field for field,
  including message counts and sampled message provenance.  Eligibility is
  therefore a whitelist, never a blacklist: anything not explicitly analyzed
  runs on the event loop.
* Selection is three-valued (``"event"``, ``"vector"``, ``"auto"``) and
  resolves ``Scenario.kernel`` -> ``REPRO_KERNEL`` env -> ``"auto"``.
  ``"auto"`` uses the vector kernel exactly when eligible; ``"vector"``
  *requests* it and records an :meth:`~repro.sim.recorder.Recorder.on_note`
  explaining the fallback when the scenario is ineligible (it never errors).
* Even an eligible scenario may fall back per run: the vector evaluator
  re-derives the event loop's tie-breaking order from first principles and
  refuses (lane by lane) whenever an execution leaves the regime where that
  derivation is proven -- again with an ``on_note`` naming the reason.

The result cache keys on the resolved kernel (since cache schema v6), so switching
kernels never serves a result recorded under the other engine even though the
two are float-identical by construction -- parity is *enforced* by
``tests/test_kernel_parity.py`` and the ``perfbench`` digests, not assumed by
the cache.
"""

from __future__ import annotations

import os
from typing import Optional

#: Valid values of ``Scenario.kernel`` / ``REPRO_KERNEL`` (``Scenario.kernel``
#: may also be ``None``, meaning "defer to the environment, then auto").
KERNELS = ("auto", "event", "vector")

#: Environment variable consulted when ``Scenario.kernel`` is ``None``.
KERNEL_ENV = "REPRO_KERNEL"

#: Prefix of every fallback annotation the kernel layer records, so tests and
#: operators can grep one stable marker in ``summary.notes``.
FALLBACK_NOTE_PREFIX = "vector kernel fallback:"

#: Algorithms the vector layer evaluates exactly: the authenticated
#: signature-chain rule (f+1 distinct signers) and the echo broadcast rule
#: (f+1 inits/echoes -> echo, 2f+1 echoes -> accept).
ELIGIBLE_ALGORITHMS = frozenset(["auth", "echo"])

#: Attacks whose faulty behaviour the vector evaluator models exactly --
#: deterministic ones, plus the randomized ones (``forge_flood`` and the
#: ``random_*`` strategies) whose per-adversary ``random.Random(seed + pid)``
#: streams the evaluator replays draw for draw by calling the role's send
#: policy in :mod:`repro.sim.adversary`.  A role being in that table grants
#: nothing here: a name enters this list only after its parity family passes.
ELIGIBLE_ATTACKS = frozenset(
    [None, "silent", "crash", "eager", "two_faced", "laggard", "skew_max",
     "forge_flood", "random_silence", "random_two_faced", "random_laggard"]
)

#: Clock assignments the vector layer inverts exactly: fixed-rate clocks
#: (closed form) and drifting (``random``) clocks, whose piecewise-linear
#: trajectories are reconstructed from ``Random(seed)`` up front and
#: inverted by a vectorized segment walk over the precomputed breakpoints.
ELIGIBLE_CLOCK_MODES = frozenset(["extreme", "nominal", "random"])

#: Delay policies the vector layer reproduces exactly: the deterministic
#: per-(sender, destination) ones, plus ``uniform``, whose network RNG the
#: evaluator consumes in the event loop's exact global send order.  ``"min"``
#: (zero-delay cascades, even with ``tmin = 0``) is served by the
#: exact-replay engine, whose (time, creation-seq) heap resolves the
#: cascades with the event loop's exact discipline.
ELIGIBLE_DELAY_MODES = frozenset(["max", "midpoint", "targeted", "uniform", "min"])


def _eligible_names(eligible) -> str:
    """Render a whitelist set as a stable, human-readable reason fragment."""
    return ", ".join(
        sorted(repr(name) for name in eligible if name is not None)
    )

_numpy_checked = False
_numpy_module = None


def numpy_or_none():
    """The ``numpy`` module, or ``None`` when it is not installed.

    The package declares no hard dependencies, so the vector kernel gates its
    import: without NumPy every scenario is simply ineligible (reason
    ``"numpy is not installed"``) and the event loop serves everything.
    """
    global _numpy_checked, _numpy_module
    if not _numpy_checked:
        try:
            import numpy  # noqa: PLC0415 -- optional dependency, gated import

            _numpy_module = numpy
        except ImportError:  # pragma: no cover - exercised only without numpy
            _numpy_module = None
        _numpy_checked = True
    return _numpy_module


def resolve_kernel(scenario) -> str:
    """The effective kernel selection for ``scenario``.

    ``Scenario.kernel`` wins when set; otherwise the ``REPRO_KERNEL``
    environment variable; otherwise ``"auto"``.  The result cache keys on
    this resolved value (since schema v6), so an environment override changes the
    cache identity exactly like the explicit field does.
    """
    kernel = getattr(scenario, "kernel", None)
    if kernel is None:
        kernel = os.environ.get(KERNEL_ENV, "").strip() or "auto"
    if kernel not in KERNELS:
        raise ValueError(f"unknown kernel {kernel!r}; expected one of {KERNELS}")
    return kernel


def kernel_ineligibility(scenario, trace_level: str) -> Optional[str]:
    """Why the vector kernel may not serve ``scenario``, or ``None`` if it may.

    This is the static half of the float-parity contract: every check below
    corresponds to a regime the array evaluation in
    :mod:`repro.sim.vectorized` is proven float-identical to the event loop
    in (see ``docs/kernel.md`` for the argument).  Dynamic, per-execution
    refusals (tie-breaking regimes the proof does not cover) are reported by
    the evaluator itself.

    ``scenario`` is duck-typed (anything with the :class:`Scenario` fields
    works) so this module never imports the workloads layer.
    """
    if trace_level != "metrics":
        return "full traces require the event loop (vector kernel is metrics-only)"
    algorithm = getattr(scenario, "algorithm", None)
    if algorithm not in ELIGIBLE_ALGORITHMS:
        return (
            f"algorithm {algorithm!r} is not vectorized "
            f"(only {_eligible_names(ELIGIBLE_ALGORITHMS)})"
        )
    attack = getattr(scenario, "attack", None)
    if attack not in ELIGIBLE_ATTACKS:
        return (
            f"attack {attack!r} is not vectorized "
            f"(only benign or {_eligible_names(ELIGIBLE_ATTACKS)})"
        )
    if getattr(scenario, "clock_mode", None) not in ELIGIBLE_CLOCK_MODES:
        return (
            f"clock_mode {getattr(scenario, 'clock_mode', None)!r} needs the "
            f"event loop (only {_eligible_names(ELIGIBLE_CLOCK_MODES)})"
        )
    if getattr(scenario, "delay_mode", None) not in ELIGIBLE_DELAY_MODES:
        return (
            f"delay_mode {getattr(scenario, 'delay_mode', None)!r} needs the "
            f"event loop (only {_eligible_names(ELIGIBLE_DELAY_MODES)})"
        )
    if getattr(scenario, "use_startup", False):
        return "start-up protocol runs are not vectorized"
    if getattr(scenario, "joiner_count", 0):
        return "joiner scenarios are not vectorized"
    if getattr(scenario, "monotonic", False):
        return "monotonic (no-backward-correction) ablation is not vectorized"
    if getattr(scenario, "grace", 0.0) != 0.0:
        return "grace windows past round completion are not vectorized"
    params = scenario.params
    if algorithm == "echo" and params.n <= 3 * params.f:
        # The event loop's EchoTracker raises ValueError for this
        # configuration; stay ineligible so the same error surfaces instead
        # of the vector layer masking it.
        return (
            f"echo broadcast requires n > 3f (got n={params.n}, f={params.f}); "
            "the event loop raises on construction"
        )
    honest = params.n - scenario.actual_faults
    if honest < params.f + 1:
        return (
            f"{honest} honest processes cannot meet the f+1={params.f + 1} acceptance "
            "threshold (out-of-spec run); the event loop measures the stall"
        )
    # Probed last: a process that only ever runs full traces, baselines or
    # start-up/join never pays for an import it cannot use.
    if numpy_or_none() is None:
        return "numpy is not installed"
    return None


def fallback_note(reason: str) -> str:
    """The ``on_note`` annotation recorded when a requested vector run falls back."""
    return f"{FALLBACK_NOTE_PREFIX} {reason}"
