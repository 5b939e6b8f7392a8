"""The broadcast-primitive abstraction.

Srikanth and Toueg's key structuring idea is that both of their clock
synchronization algorithms are the *same* algorithm on top of different
implementations of a broadcast primitive with three properties.  For a
"round k" broadcast:

* **Correctness** -- if enough correct processes broadcast round ``k`` by real
  time ``t``, then every correct process accepts round ``k`` by
  ``t + latency`` (``latency = tdel`` with signatures, ``2*tdel`` with echoes).
* **Unforgeability** -- if no correct process has broadcast round ``k`` by
  time ``t``, then no correct process accepts round ``k`` by ``t`` (faulty
  processes alone cannot trigger an acceptance).
* **Relay** -- if a correct process accepts round ``k`` at time ``t``, then
  every correct process accepts round ``k`` by ``t + relay`` (``relay = tdel``
  with signatures, ``2*tdel`` with echoes).

This module defines the tiny shared vocabulary (the decision record returned
by the trackers, and the abstract interface); the two concrete trackers live
in :mod:`repro.broadcast.authenticated` and :mod:`repro.broadcast.echo`.
The trackers are deliberately pure state machines -- no clocks, no network --
so the properties can be unit- and property-tested in isolation.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass


@dataclass(frozen=True)
class PrimitiveActions:
    """What a tracker asks its owning process to do after recording a message."""

    #: The process should send an echo for ``round`` (non-authenticated primitive only).
    send_echo: bool = False
    #: The process newly reached the acceptance threshold for ``round``.
    accept: bool = False

    def __or__(self, other: "PrimitiveActions") -> "PrimitiveActions":
        return PrimitiveActions(
            send_echo=self.send_echo or other.send_echo,
            accept=self.accept or other.accept,
        )


NO_ACTIONS = PrimitiveActions()


class BroadcastTracker(ABC):
    """Common query interface of the two broadcast-primitive trackers."""

    @abstractmethod
    def support(self, round_: int) -> int:
        """Number of distinct supporters counted toward acceptance of ``round_``."""

    @abstractmethod
    def reached(self, round_: int) -> bool:
        """Whether the acceptance threshold for ``round_`` has been reached."""

    @abstractmethod
    def rounds_with_support(self) -> list[int]:
        """Rounds for which at least one supporting message was recorded."""

    def _within_window(self, round_: int) -> bool:
        """Whether ``round_`` is in the window: at or above ``_floor``, within ``max_round_lookahead`` of it."""
        lookahead = self.max_round_lookahead
        return self._floor <= round_ and (lookahead is None or round_ <= self._floor + lookahead)
