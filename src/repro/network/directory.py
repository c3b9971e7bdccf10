"""Napster-style centralized directory (paper footnote 4, option one).

Supplying peers register themselves (per media id) with the directory; a
requesting peer asks for ``M`` uniformly random candidates and gets their
peer ids.  The paper assumes "the class of each candidate is also
obtained"; a peer's class never changes, so the simulator reads it from
its own per-peer column rather than from a copy kept here.  The directory
deliberately does *not* know whether a supplier is busy: discovering that
costs the requester a probe, exactly as in the paper's protocol.

Sampling must be uniform over the current supplier population and O(M); the
implementation keeps an array plus an index map so register/unregister are
O(1) swaps and sampling needs no rejection loops (beyond duplicates when the
population is smaller than ``M``).
"""

from __future__ import annotations

import random

from repro.errors import LookupError_

__all__ = ["CentralDirectory"]


class CentralDirectory:
    """In-memory supplier directory with O(1) updates and uniform sampling."""

    def __init__(self) -> None:
        # media_id -> (list of peer ids, peer id -> position in list)
        self._entries: dict[str, list[int]] = {}
        self._positions: dict[str, dict[int, int]] = {}

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def register(self, media_id: str, peer_id: int) -> None:
        """Add a supplying peer for ``media_id``; idempotent re-registration."""
        entries = self._entries.setdefault(media_id, [])
        positions = self._positions.setdefault(media_id, {})
        if peer_id not in positions:
            positions[peer_id] = len(entries)
            entries.append(peer_id)

    def unregister(self, media_id: str, peer_id: int) -> None:
        """Remove a supplier (churn support); raises if it was never there."""
        positions = self._positions.get(media_id, {})
        if peer_id not in positions:
            raise LookupError_(
                f"peer {peer_id} is not registered for media {media_id!r}"
            )
        entries = self._entries[media_id]
        index = positions.pop(peer_id)
        last = entries.pop()
        if last != peer_id:
            entries[index] = last
            positions[last] = index

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def num_suppliers(self, media_id: str) -> int:
        """Current number of registered suppliers for ``media_id``."""
        return len(self._entries.get(media_id, []))

    def live_entries(self, media_id: str) -> list[int]:
        """The directory's live peer-id array for ``media_id``.

        Returns the *internal* list that :meth:`register` /
        :meth:`unregister` mutate in place, creating it if the media id has
        never been seen.  The array engine
        (:mod:`repro.simulation.arrayengine`) holds onto it so its candidate
        sampling draws from exactly the population — and in exactly the
        order — that :meth:`sample_candidates` would see, without a dict
        lookup per request.  Callers must not mutate the list.
        """
        return self._entries.setdefault(media_id, [])

    def sample_candidates(
        self, media_id: str, count: int, rng: random.Random
    ) -> list[int]:
        """Return up to ``count`` distinct random peer ids.

        When fewer than ``count`` suppliers exist, all of them are returned
        (in random order) — the paper's requester then simply probes a
        shorter candidate list.
        """
        entries = self._entries.get(media_id, [])
        if not entries:
            return []
        if count >= len(entries):
            chosen = list(entries)
            rng.shuffle(chosen)
            return chosen
        return rng.sample(entries, count)
