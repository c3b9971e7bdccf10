"""Output checks: the paper's invariants and pinned behaviour fingerprints.

Every operation the benchmark times is checked here afterwards.  A check
returns a list of problems; an empty list passes.  The workload counts an
operation with problems, or one that raised, as failed.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

#: fingerprints of every workload at the default seed
PINS_PATH = Path(__file__).with_name("pins.json")


def load_pins() -> dict:
    """The pinned fingerprints, keyed by workload."""
    return json.loads(PINS_PATH.read_text(encoding="utf-8"))


def fingerprint(result) -> str:
    """sha256 over the metrics payload, event count and message stats.

    Takes a live ``SimulationResult`` or a ``RunRecord``: both expose
    ``metrics.to_dict()``, ``events_processed`` and ``message_stats``.
    This is the digest ``tests/simulation/test_lifecycle.py`` pins.
    """
    payload = {
        "metrics": result.metrics.to_dict(),
        "events_processed": result.events_processed,
        "message_stats": result.message_stats,
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def invariant_problems(result, lifecycle: bool = False) -> list[str]:
    """The per-run invariants every seed must satisfy.

    Per class ``admitted <= first_requests <= requests``; the final
    capacity stays within the capacity ceiling; with a lifecycle model,
    recovered plus lost sessions never exceed the interruptions.
    """
    metrics = result.metrics
    problems = []
    admitted = metrics.admitted
    first = metrics.first_requests
    requests = metrics.requests
    for peer_class in sorted(requests):
        if not admitted[peer_class] <= first[peer_class] <= requests[peer_class]:
            problems.append(
                f"class {peer_class}: admitted {admitted[peer_class]} <= first "
                f"requests {first[peer_class]} <= requests "
                f"{requests[peer_class]} does not hold"
            )
    if metrics.final_capacity() > result.max_capacity:
        problems.append(
            f"final capacity {metrics.final_capacity()} exceeds the "
            f"ceiling {result.max_capacity}"
        )
    if lifecycle:
        interruptions = metrics.interruptions
        recovered = metrics.recovered_sessions
        lost = metrics.sessions_lost
        for peer_class in sorted(interruptions):
            closed = recovered[peer_class] + lost[peer_class]
            if closed > interruptions[peer_class]:
                problems.append(
                    f"class {peer_class}: {closed} recovered + lost sessions "
                    f"exceed {interruptions[peer_class]} interruptions"
                )
    return problems


class FingerprintCheck:
    """Fingerprints of one workload, checked three ways.

    At the default seed each key must match its pin.  At any other seed
    no fingerprint may equal a pinned one, which shows the seed reached
    the program.  At every seed, a key seen again in the same process
    must repeat its first fingerprint, because runs are deterministic.
    """

    def __init__(self, pinned: dict[str, str], at_default_seed: bool) -> None:
        self.pinned = pinned
        self.at_default_seed = at_default_seed
        self.first: dict[str, str] = {}

    def problems(self, key: str, digest: str) -> list[str]:
        """What is wrong with ``digest`` as the fingerprint of ``key``."""
        problems = []
        first = self.first.setdefault(key, digest)
        if digest != first:
            problems.append(
                f"{key}: fingerprint {digest[:12]} differs from this "
                f"process's first run of it ({first[:12]})"
            )
        if self.at_default_seed:
            pin = self.pinned.get(key)
            if digest != pin:
                problems.append(
                    f"{key}: fingerprint {digest[:12]} does not match the pin "
                    f"{str(pin)[:12]}"
                )
        elif digest in self.pinned.values():
            problems.append(
                f"{key}: fingerprint equals a default-seed pin, so the seed "
                "did not reach the program"
            )
        return problems
