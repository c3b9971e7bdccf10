"""Peer availability (churn) models.

The paper's admission procedure skips candidates that are "down", but its
evaluation does not describe peers leaving — so the default model is
:class:`NoChurn`.  Two richer models support the robustness experiments in
the benchmark suite:

* :class:`BernoulliChurn` — each probe independently finds the candidate
  down with probability ``p``; memoryless and cheap, good for sensitivity
  sweeps.
* :class:`OnOffChurn` — each peer alternates exponentially-distributed up
  and down periods on a private, deterministic timeline (lazily extended),
  which gives *time-correlated* unavailability: a peer that was down a
  second ago is probably still down.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass
from typing import Protocol

from repro.errors import ConfigurationError

__all__ = ["AvailabilityModel", "NoChurn", "BernoulliChurn", "OnOffChurn"]


class AvailabilityModel(Protocol):
    """Answers: is this peer reachable right now?"""

    def is_down(self, peer_id: int, now: float, rng: random.Random) -> bool:
        """True when a probe of ``peer_id`` at time ``now`` finds it down."""
        ...


@dataclass(frozen=True)
class NoChurn:
    """Every peer is always up — the paper's implicit model."""

    def is_down(self, peer_id: int, now: float, rng: random.Random) -> bool:
        """Never down."""
        return False


@dataclass(frozen=True)
class BernoulliChurn:
    """Independent per-probe unavailability with probability ``p``."""

    p: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.p < 1.0:
            raise ConfigurationError(f"down probability must be in [0,1), got {self.p}")

    def is_down(self, peer_id: int, now: float, rng: random.Random) -> bool:
        """Down with probability ``p``, independently per probe."""
        return self.p > 0.0 and rng.random() < self.p


class OnOffChurn:
    """Alternating exponential up/down periods, deterministic per peer.

    Each peer's timeline is generated from a private RNG seeded by
    ``(seed, peer_id)``; timelines extend lazily as queries move forward in
    time, so memory stays proportional to the number of peers ever probed.
    Peers start up with probability ``mean_up / (mean_up + mean_down)`` (the
    stationary distribution).
    """

    def __init__(self, mean_up_seconds: float, mean_down_seconds: float, seed: int = 0):
        if mean_up_seconds <= 0 or mean_down_seconds <= 0:
            raise ConfigurationError("mean up/down durations must be > 0")
        self.mean_up = mean_up_seconds
        self.mean_down = mean_down_seconds
        self.seed = seed
        # peer_id -> (rng, boundary times list, state of first interval)
        self._timelines: dict[int, tuple[random.Random, list[float], bool]] = {}

    def _timeline(self, peer_id: int) -> tuple[random.Random, list[float], bool]:
        if peer_id not in self._timelines:
            rng = random.Random(f"churn:{self.seed}:{peer_id}")
            availability = self.mean_up / (self.mean_up + self.mean_down)
            starts_up = rng.random() < availability
            self._timelines[peer_id] = (rng, [0.0], starts_up)
        return self._timelines[peer_id]

    def is_down(self, peer_id: int, now: float, rng: random.Random) -> bool:
        """Whether ``peer_id``'s on/off timeline has it down at ``now``."""
        down, _boundary = self.next_transition(peer_id, now)
        return down

    def next_transition(self, peer_id: int, now: float) -> tuple[bool, float]:
        """State at ``now`` plus the time of the next up/down flip.

        Returns ``(is_down_now, boundary)`` where ``boundary > now`` is
        the end of the interval containing ``now``.  This is what lets
        :class:`~repro.simulation.lifecycle.OnOffLifecycle` turn the same
        timeline that :meth:`is_down` samples at probe time into
        scheduled departure/return events.  Extending the timeline
        consumes exactly the draws :meth:`is_down` would, so mixing the
        two access patterns never perturbs a peer's timeline.
        """
        peer_rng, boundaries, starts_up = self._timeline(peer_id)
        while boundaries[-1] <= now:
            intervals_so_far = len(boundaries) - 1
            currently_up = starts_up if intervals_so_far % 2 == 0 else not starts_up
            mean = self.mean_up if currently_up else self.mean_down
            boundaries.append(boundaries[-1] + peer_rng.expovariate(1.0 / mean))
        # index of the interval containing ``now`` (its boundary is next)
        index = bisect.bisect_right(boundaries, now) - 1
        up_now = starts_up if index % 2 == 0 else not starts_up
        return not up_now, boundaries[index + 1]
