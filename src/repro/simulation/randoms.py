"""Named, independently-seeded RNG streams.

Every source of randomness in a run gets its *own* ``random.Random``
instance, derived deterministically from the master seed and a stream name.
This is the standard trick for variance-controlled simulation studies: the
admission coin flips of a DAC run and an NDAC run with the same master seed
consume identical candidate-sampling streams, so protocol comparisons are
paired rather than confounded by RNG drift.

``random.Random`` accepts a string seed and hashes it with its own stable
algorithm (not Python's per-process ``hash``), so streams are reproducible
across interpreter sessions without touching ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import random

__all__ = ["RandomStreams"]

#: Streams the streaming system uses.  Kept in one place so a config or test
#: can enumerate them.
STREAM_NAMES = ("arrivals", "lookup", "admission", "churn", "population")


class RandomStreams:
    """Factory of deterministic, named child RNGs under one master seed."""

    def __init__(self, master_seed: int) -> None:
        self.master_seed = master_seed
        self._streams: dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """The RNG for ``name`` (created on first use, cached after)."""
        if name not in self._streams:
            self._streams[name] = random.Random(f"repro:{self.master_seed}:{name}")
        return self._streams[name]

    @property
    def arrivals(self) -> random.Random:
        """Poisson arrival sampling (unused in deterministic-arrivals mode)."""
        return self.stream("arrivals")

    @property
    def lookup(self) -> random.Random:
        """Candidate sampling in the lookup substrate."""
        return self.stream("lookup")

    @property
    def admission(self) -> random.Random:
        """The probabilistic admission coin flips of DAC_p2p."""
        return self.stream("admission")

    @property
    def churn(self) -> random.Random:
        """Probe-loss draws and the graceful lifecycle model's periods."""
        return self.stream("churn")

    @property
    def population(self) -> random.Random:
        """Shuffling class labels over the requesting-peer population."""
        return self.stream("population")
