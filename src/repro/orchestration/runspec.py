"""Frozen run specifications and their stable content hashes.

A :class:`RunSpec` pins down *exactly one* simulation run: a fully
expanded :class:`~repro.simulation.config.SimulationConfig` (master seed
included) plus provenance labels — the scenario it came from and the
study axes that selected it.  Its :attr:`~RunSpec.spec_hash` is a SHA-256
over the canonical JSON form of the configuration, which makes it a
stable cache key across processes and sessions: the same configuration
always hashes the same, and any field change hashes differently.

The helpers :func:`config_to_dict` / :func:`config_from_dict` define the
canonical JSON form; they are also what run records use to stamp full
configuration provenance into their on-disk representation.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from functools import cached_property

from repro.simulation.config import SimulationConfig

__all__ = [
    "HASH_EXCLUDED_FIELDS",
    "RunSpec",
    "config_to_dict",
    "config_from_dict",
    "config_hash",
]

#: config fields whose values are per-class dicts (int keys, stringified in JSON)
_CLASS_KEYED_FIELDS = ("seed_suppliers", "requesting_peers")

#: The documented allowlist of :class:`SimulationConfig` fields that
#: :func:`config_hash` deliberately leaves out of the cache key, each with
#: the rationale for why excluding it cannot change measurements.  This is
#: the single source of truth humans read; the executable pops inside
#: :func:`config_hash` are kept literal on purpose, and the detlint
#: ``config-hash-drift`` rule fails the build whenever the two drift apart
#: (an entry without a pop, a pop without an entry, a stale field name, or
#: an empty rationale).
HASH_EXCLUDED_FIELDS: dict[str, str] = {
    "engine": (
        "the array engine is parity-pinned against the object engine "
        "(see repro.simulation.arrayengine), so runs differing only in "
        "engine produce the same measurements and share one cache entry"
    ),
}


def config_to_dict(config: SimulationConfig) -> dict:
    """Every config field as a JSON-ready dict (class keys as strings)."""
    data = dataclasses.asdict(config)
    for name in _CLASS_KEYED_FIELDS:
        data[name] = {str(k): v for k, v in sorted(data[name].items())}
    return data


def config_from_dict(data: dict) -> SimulationConfig:
    """Rebuild a validated config from :func:`config_to_dict` output."""
    payload = dict(data)
    for name in _CLASS_KEYED_FIELDS:
        payload[name] = {int(k): v for k, v in payload[name].items()}
    return SimulationConfig(**payload)


def config_hash(config: SimulationConfig) -> str:
    """Stable SHA-256 hex digest of a configuration's canonical JSON.

    The fields listed in :data:`HASH_EXCLUDED_FIELDS` are excluded (see
    the per-field rationales there): runs differing only in those fields
    produce the same measurements and deliberately share one cache
    entry.  The pop below stays literal — not a loop over the constant —
    so the exclusion set is auditable at a glance; the detlint
    ``config-hash-drift`` rule keeps it and the allowlist in sync.
    """
    data = config_to_dict(config)
    data.pop("engine", None)
    canonical = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class RunSpec:
    """One fully specified simulation run within a study.

    ``config`` is the run itself; ``scenario`` and ``axes`` are
    provenance — which named workload the study expanded and which swept
    axis values (protocol, parameter, seed) selected this particular run.
    Two specs with equal configs share a ``spec_hash`` even if their
    provenance differs, so result stores deduplicate identical work.
    """

    config: SimulationConfig
    scenario: str | None = None
    axes: tuple[tuple[str, object], ...] = ()

    @cached_property
    def spec_hash(self) -> str:
        """Content hash of the configuration (cache key)."""
        return config_hash(self.config)

    @property
    def seed(self) -> int:
        """The run's master RNG seed."""
        return self.config.master_seed

    @property
    def protocol(self) -> str:
        """The run's admission policy name."""
        return self.config.protocol

    def label(self) -> str:
        """Compact human-readable identification of the run."""
        axis_names = {name for name, _ in self.axes}
        parts = [self.scenario] if self.scenario else []
        if "protocol" not in axis_names:
            parts.append(self.protocol)
        parts.extend(f"{name}={value}" for name, value in self.axes)
        if "seed" not in axis_names:
            parts.append(f"seed={self.seed}")
        return " ".join(parts)
