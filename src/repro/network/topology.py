"""Latency models for the transport substrate.

The paper's simulation does not model network latency — probe exchanges are
instantaneous relative to minutes-scale backoffs — but a reproduction that
charges *zero* for signalling can't quantify the probing-overhead remark the
paper makes about large ``M`` (Section 5.2(6)).  These models give the
transport something principled to charge:

* :class:`ConstantLatency` — every pair of peers is ``rtt/2`` apart; the
  paper-equivalent behaviour with a knob.
* :class:`GeometricLatency` — peers are placed uniformly in a unit square
  and latency is proportional to Euclidean distance, a standard lightweight
  stand-in for Internet delay space (built lazily; no O(n²) matrix).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol

from repro.errors import ConfigurationError

__all__ = ["LatencyModel", "ConstantLatency", "GeometricLatency"]


class LatencyModel(Protocol):
    """Anything that can price a one-way message between two peers."""

    def one_way_seconds(self, src: int, dst: int) -> float:
        """One-way delay from peer ``src`` to peer ``dst`` in seconds."""
        ...


@dataclass(frozen=True)
class ConstantLatency:
    """Uniform one-way latency between any two distinct peers.

    ``one_way_seconds(p, p)`` is zero — a peer talking to itself (e.g. a
    local directory cache hit) costs nothing.
    """

    seconds: float = 0.05

    def __post_init__(self) -> None:
        if self.seconds < 0:
            raise ConfigurationError(f"latency must be >= 0, got {self.seconds}")

    def one_way_seconds(self, src: int, dst: int) -> float:
        """Constant delay for distinct peers, zero for self-messages."""
        return 0.0 if src == dst else self.seconds


@dataclass
class GeometricLatency:
    """Latency proportional to distance in a unit square.

    Peer coordinates are derived deterministically from the peer id with a
    splitmix-style hash, so the model needs no per-peer state, scales to any
    population, and is reproducible without an RNG seed handshake.

    Parameters
    ----------
    min_seconds:
        Base propagation delay added to every (distinct-peer) message.
    max_extra_seconds:
        Delay added at the maximum possible distance (``√2``).
    """

    min_seconds: float = 0.01
    max_extra_seconds: float = 0.08

    def __post_init__(self) -> None:
        if self.min_seconds < 0 or self.max_extra_seconds < 0:
            raise ConfigurationError("latency parameters must be >= 0")

    @staticmethod
    def _mix(value: int) -> int:
        """SplitMix64 finalizer: a cheap, well-distributed integer hash."""
        value = (value + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
        value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
        value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
        return value ^ (value >> 31)

    def position(self, peer_id: int) -> tuple[float, float]:
        """Deterministic position of ``peer_id`` in the unit square."""
        scale = float(1 << 64)
        x = self._mix(2 * peer_id) / scale
        y = self._mix(2 * peer_id + 1) / scale
        return (x, y)

    def one_way_seconds(self, src: int, dst: int) -> float:
        """Distance-proportional one-way delay; zero for self-messages."""
        if src == dst:
            return 0.0
        (x1, y1), (x2, y2) = self.position(src), self.position(dst)
        distance = math.hypot(x2 - x1, y2 - y1)
        return self.min_seconds + self.max_extra_seconds * distance / math.sqrt(2.0)
