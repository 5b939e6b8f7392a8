"""Analytic guarantees of the Srikanth-Toueg synchronizers.

This module re-derives, from first principles and for the algorithms exactly
as implemented in :mod:`repro.core.auth_sync` and
:mod:`repro.core.unauth_sync`, the quantities the paper's theorems are about:

* bounds on the real time between resynchronizations (``beta_min``/``beta_max``),
* the worst-case precision (mutual skew) bound ``Dmax``,
* the long-run accuracy (logical clock rate) bounds and their optimality gap,
* the parameter side-conditions under which the guarantees hold,
* message-complexity counts.

Because the reproduction could not quote the original text verbatim (PAPER.md
holds only the paper's reference), the constants below are conservative bounds
*proved for this implementation*; the benchmark harness checks empirically
that no execution, adversarial or benign, ever violates them.

Derivation sketch
-----------------
Both algorithms are instances of the same pattern, differing only in the
broadcast primitive used to agree that "it is time for round k":

* authenticated (signatures):  accept on ``f+1`` distinct valid signatures;
  the acceptor relays the signature set.  Properties:

  - *correctness*:  once ``f+1`` correct processes have broadcast round ``k``,
    every correct process accepts within ``tdel``;
  - *unforgeability*:  no correct process accepts round ``k`` before the first
    correct process broadcast it;
  - *relay*:  if some correct process accepts at real time ``t``, every correct
    process accepts by ``t + tdel``  (the acceptor's forwarded bundle arrives
    within one delay).

* non-authenticated (init/echo with thresholds ``f+1`` / ``2f+1``, requires
  ``n > 3f``): the same three properties hold with ``tdel`` replaced by
  ``2*tdel`` for correctness and relay (an extra hop through the echoes).

Write ``SIGMA`` for the relay bound (``tdel`` resp. ``2*tdel``) and ``DACC``
for the correctness bound (same values).  Let ``t_k`` be the real time of the
*first* correct acceptance of round ``k``.  By relay, all correct acceptance
times for round ``k`` lie in ``[t_k, t_k + SIGMA]``.  On acceptance a process
sets its logical clock to ``k*P + alpha``, so it next broadcasts round ``k+1``
after a local-clock advance of ``P - alpha``, i.e. after real time in
``[(P - alpha)/(1+rho), (P - alpha)*(1+rho)]``.  Combining with
unforgeability and correctness:

    gamma_min :=  (P - alpha)/(1+rho) - SIGMA   <=  t_{k+1} - t_k
    gamma_max :=  (P - alpha)*(1+rho) + SIGMA + DACC  >=  t_{k+1} - t_k

and for a single process's consecutive resynchronizations

    beta_min  :=  gamma_min                <=  a_p^{k+1} - a_p^k
    beta_max  :=  gamma_max + SIGMA        >=  a_p^{k+1} - a_p^k .

Precision.  Between the completion of round ``k`` (time ``t_k + SIGMA``) and
the completion of round ``k+1``, a correct clock is in one of two states:
still on round ``k`` (value ``k*P + alpha`` plus local advance since its
acceptance) or already on round ``k+1`` (value ``(k+1)*P + alpha`` plus at
most ``(1+rho)*SIGMA``).  Maximising the difference over the four
combinations, with ``tau = t - t_k <= gamma_max + SIGMA``, gives

    skew_AA = gamma_max * rho(2+rho)/(1+rho) + (1+rho) * SIGMA          (both on k)
    skew_BB = (1+rho) * SIGMA                                            (both on k+1)
    skew_BA = P + (1+rho)*SIGMA + SIGMA/(1+rho) - gamma_min/(1+rho)      (ahead vs behind)
    skew_AB = (1+rho)*(gamma_max + SIGMA) - P                            (behind-but-fast vs just-resynced)

    Dmax = max(skew_AA, skew_BB, skew_BA, skew_AB)

Accuracy.  Between consecutive acceptances a logical clock advances exactly
``P`` (from ``k*P+alpha`` to ``(k+1)*P+alpha``), over a real-time span in
``[beta_min, beta_max]``, so the long-run logical rate lies in
``[P / beta_max, P / beta_min]``.  As ``P / tdel -> infinity`` these bounds
converge to the hardware bounds ``[1/(1+rho), 1+rho]``: the excess is
``O((tdel + rho*tdel) / P)`` and -- crucially -- independent of ``f`` and
``n``.  That is the "optimal accuracy" property this reproduction validates:
fault tolerance costs nothing in clock rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .params import SyncParams

#: Identifier of the authenticated (signature-based) algorithm.
AUTH = "auth"
#: Identifier of the non-authenticated (echo-broadcast) algorithm.
ECHO = "echo"

_ALGORITHMS = (AUTH, ECHO)


class ParameterError(ValueError):
    """Raised when parameters violate the side-conditions of a guarantee."""


def _check_algorithm(algorithm: str) -> str:
    if algorithm not in _ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}; expected one of {_ALGORITHMS}")
    return algorithm


def acceptance_spread(params: SyncParams, algorithm: str = AUTH) -> float:
    """``SIGMA``: max real-time spread of correct acceptances of one round (relay bound)."""
    _check_algorithm(algorithm)
    return params.tdel if algorithm == AUTH else 2.0 * params.tdel


def acceptance_latency(params: SyncParams, algorithm: str = AUTH) -> float:
    """``DACC``: max real time from "enough correct processes broadcast" to "all accepted"."""
    _check_algorithm(algorithm)
    return params.tdel if algorithm == AUTH else 2.0 * params.tdel


def gamma_min(params: SyncParams, algorithm: str = AUTH) -> float:
    """Lower bound on the gap between consecutive first-acceptance times."""
    sigma = acceptance_spread(params, algorithm)
    return (params.period - params.alpha_value) / (1.0 + params.rho) - sigma


def gamma_max(params: SyncParams, algorithm: str = AUTH) -> float:
    """Upper bound on the gap between consecutive first-acceptance times."""
    sigma = acceptance_spread(params, algorithm)
    dacc = acceptance_latency(params, algorithm)
    return (params.period - params.alpha_value) * (1.0 + params.rho) + sigma + dacc


def beta_min(params: SyncParams, algorithm: str = AUTH) -> float:
    """Lower bound on the real time between one process's consecutive resynchronizations."""
    return gamma_min(params, algorithm)


def beta_max(params: SyncParams, algorithm: str = AUTH) -> float:
    """Upper bound on the real time between one process's consecutive resynchronizations."""
    return gamma_max(params, algorithm) + acceptance_spread(params, algorithm)


def precision_bound(params: SyncParams, algorithm: str = AUTH) -> float:
    """``Dmax``: worst-case mutual skew of correct logical clocks in steady state.

    Steady state means "from the completion of the first resynchronization
    on"; see :func:`startup_precision_bound` for the initial window.
    """
    rho = params.rho
    sigma = acceptance_spread(params, algorithm)
    g_min = gamma_min(params, algorithm)
    g_max = gamma_max(params, algorithm)
    one = 1.0 + rho
    drift_factor = rho * (2.0 + rho) / one

    skew_aa = g_max * drift_factor + one * sigma
    skew_bb = one * sigma
    skew_ba = params.period + one * sigma + sigma / one - g_min / one
    skew_ab = one * (g_max + sigma) - params.period
    return max(skew_aa, skew_bb, skew_ba, skew_ab)


def startup_precision_bound(params: SyncParams, algorithm: str = AUTH) -> float:
    """Skew bound valid from time 0, given the initial hardware-offset spread.

    Before the first resynchronization completes, correct logical clocks equal
    their hardware clocks, so the skew is the initial offset spread plus the
    drift accumulated until the first acceptance window closes, which happens
    no later than real time ``(1+rho) * P + DACC + SIGMA`` (every correct
    clock reaches ``P`` by ``(1+rho) * P``, regardless of offsets <= P).
    """
    rho = params.rho
    one = 1.0 + rho
    sigma = acceptance_spread(params, algorithm)
    dacc = acceptance_latency(params, algorithm)
    first_window_end = one * params.period + dacc + sigma
    drift_factor = rho * (2.0 + rho) / one
    initial = params.initial_offset_spread + first_window_end * drift_factor
    return max(initial, precision_bound(params, algorithm))


def long_run_rate_bounds(params: SyncParams, algorithm: str = AUTH) -> tuple[float, float]:
    """Bounds on the long-run rate of a correct logical clock, ``(rate_min, rate_max)``.

    Per resynchronization the logical clock advances exactly ``P`` over a real
    time in ``[beta_min, beta_max]``.
    """
    b_min = beta_min(params, algorithm)
    b_max = beta_max(params, algorithm)
    if b_min <= 0:
        raise ParameterError(
            "beta_min <= 0: the period is too short for the chosen delay bound "
            f"(P={params.period}, alpha={params.alpha_value}, tdel={params.tdel})"
        )
    return params.period / b_max, params.period / b_min


def accuracy_excess(params: SyncParams, algorithm: str = AUTH) -> tuple[float, float]:
    """How far the long-run rate bounds exceed the hardware drift envelope.

    Returns ``(low_excess, high_excess)`` where ``low_excess = 1/(1+rho) -
    rate_min`` and ``high_excess = rate_max - (1+rho)``.  Both are
    ``O((tdel + rho*tdel)/P)`` and vanish as the period grows -- the
    quantitative form of the paper's *optimal accuracy* claim.
    """
    rate_min, rate_max = long_run_rate_bounds(params, algorithm)
    return params.min_rate - rate_min, rate_max - params.max_rate


def envelope_constants(params: SyncParams, algorithm: str = AUTH) -> tuple[float, float]:
    """Additive constants ``(a, b)`` of the two-point accuracy envelope.

    For all ``t1 <= t2`` in steady state and every correct process::

        rate_min * (t2 - t1) - a  <=  C(t2) - C(t1)  <=  rate_max * (t2 - t1) + b

    where ``rate_min``/``rate_max`` are :func:`long_run_rate_bounds`.  The
    constants absorb at most one period's worth of slack on each side.
    """
    rate_min, rate_max = long_run_rate_bounds(params, algorithm)
    b_max = beta_max(params, algorithm)
    a = params.period + rate_min * b_max
    b = params.period + rate_max * b_max
    return a, b


def max_adjustment(params: SyncParams, algorithm: str = AUTH) -> float:
    """Upper bound on the absolute size of any single clock adjustment in steady state.

    A correct clock at acceptance of round ``k+1`` reads at least
    ``k*P + alpha + (gamma_min)/(1+rho)`` and at most
    ``k*P + alpha + (1+rho)*(gamma_max + SIGMA)``; the adjustment moves it to
    ``(k+1)*P + alpha``, so its magnitude is bounded by the larger deviation
    of those two readings from ``(k+1)*P + alpha``.
    """
    one = 1.0 + params.rho
    sigma = acceptance_spread(params, algorithm)
    low_reading = gamma_min(params, algorithm) / one
    high_reading = one * (gamma_max(params, algorithm) + sigma)
    upward = params.period - low_reading  # clock behind, moved forward
    downward = high_reading - params.period  # clock ahead, moved back
    return max(abs(upward), abs(downward))


def messages_per_round_per_process(params: SyncParams, algorithm: str = AUTH) -> int:
    """Worst-case messages a correct process sends per resynchronization round.

    Authenticated: one signed broadcast plus one relayed bundle, each to
    ``n - 1`` peers.  Non-authenticated: one init plus one echo broadcast.
    """
    _check_algorithm(algorithm)
    return 2 * (params.n - 1)


def messages_per_round_total(params: SyncParams, algorithm: str = AUTH) -> int:
    """Worst-case total messages sent by correct processes per round: ``O(n^2)``."""
    return params.honest_count * messages_per_round_per_process(params, algorithm)


def validate(params: SyncParams, algorithm: str = AUTH) -> list[str]:
    """Return the list of violated side-conditions (empty if the guarantees apply)."""
    _check_algorithm(algorithm)
    problems: list[str] = []
    if algorithm == AUTH and not params.authenticated_resilient():
        problems.append(
            f"authenticated algorithm requires n > 2f, got n={params.n}, f={params.f}"
        )
    if algorithm == ECHO and not params.unauthenticated_resilient():
        problems.append(
            f"non-authenticated algorithm requires n > 3f, got n={params.n}, f={params.f}"
        )
    if params.alpha_value >= params.period:
        problems.append(
            f"alpha ({params.alpha_value}) must be smaller than the period ({params.period})"
        )
    if gamma_min(params, algorithm) <= 0:
        problems.append(
            "gamma_min <= 0: period too short relative to the delay bound "
            f"(P={params.period}, alpha={params.alpha_value}, tdel={params.tdel}, rho={params.rho})"
        )
    if params.alpha_value < (1.0 + params.rho) * params.tdel - 1e-12:
        problems.append(
            f"alpha ({params.alpha_value}) below the recommended (1+rho)*tdel "
            f"({(1.0 + params.rho) * params.tdel}); benign-case adjustments may be negative"
        )
    if params.initial_offset_spread > params.period:
        problems.append(
            "initial_offset_spread larger than the period: the first round may be missed"
        )
    return problems


def require_valid(params: SyncParams, algorithm: str = AUTH) -> None:
    """Raise :class:`ParameterError` if any side-condition is violated."""
    problems = validate(params, algorithm)
    if problems:
        raise ParameterError("; ".join(problems))


@dataclass(frozen=True)
class TheoreticalBounds:
    """All analytic guarantees for one parameterisation, in one record."""

    algorithm: str
    resilience: int
    sigma: float
    beta_min: float
    beta_max: float
    gamma_min: float
    gamma_max: float
    precision: float
    startup_precision: float
    rate_min: float
    rate_max: float
    accuracy_excess_low: float
    accuracy_excess_high: float
    max_adjustment: float
    messages_per_round_total: int

    def as_dict(self) -> dict[str, float]:
        """Flat dictionary form, convenient for report tables."""
        return {
            "resilience": self.resilience,
            "sigma": self.sigma,
            "beta_min": self.beta_min,
            "beta_max": self.beta_max,
            "gamma_min": self.gamma_min,
            "gamma_max": self.gamma_max,
            "precision": self.precision,
            "startup_precision": self.startup_precision,
            "rate_min": self.rate_min,
            "rate_max": self.rate_max,
            "accuracy_excess_low": self.accuracy_excess_low,
            "accuracy_excess_high": self.accuracy_excess_high,
            "max_adjustment": self.max_adjustment,
            "messages_per_round_total": self.messages_per_round_total,
        }


def theoretical_bounds(params: SyncParams, algorithm: str = AUTH) -> TheoreticalBounds:
    """Compute every analytic guarantee for ``params`` under ``algorithm``."""
    require_valid(params, algorithm)
    rate_min, rate_max = long_run_rate_bounds(params, algorithm)
    excess_low, excess_high = accuracy_excess(params, algorithm)
    if algorithm == AUTH:
        resilience = math.ceil(params.n / 2) - 1
    else:
        resilience = math.ceil(params.n / 3) - 1
    return TheoreticalBounds(
        algorithm=algorithm,
        resilience=resilience,
        sigma=acceptance_spread(params, algorithm),
        beta_min=beta_min(params, algorithm),
        beta_max=beta_max(params, algorithm),
        gamma_min=gamma_min(params, algorithm),
        gamma_max=gamma_max(params, algorithm),
        precision=precision_bound(params, algorithm),
        startup_precision=startup_precision_bound(params, algorithm),
        rate_min=rate_min,
        rate_max=rate_max,
        accuracy_excess_low=excess_low,
        accuracy_excess_high=excess_high,
        max_adjustment=max_adjustment(params, algorithm),
        messages_per_round_total=messages_per_round_total(params, algorithm),
    )
