"""The declarative :class:`Scenario` — a named, reusable workload.

A scenario captures *what the world looks like* — who seeds the system,
who shows up wanting the stream, in what temporal shape, over which
lookup substrate, and with which supplier departures (a lifecycle model)
— independently of *how big* the run is (``scale``) and of
per-experiment knobs (protocol variants, ``M``, timers), which stay free
overrides.

Scenarios are frozen and hashable: the population maps are stored as
sorted ``(class, count)`` tuples, so a scenario can key result caches the
same way a config can.  :meth:`Scenario.build_config` expands a scenario
to a fully validated :class:`~repro.simulation.config.SimulationConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.simulation.config import SimulationConfig

__all__ = ["Scenario"]

#: the paper's Section 5.1 population, expressed as scenario tuples
PAPER_SEEDS: tuple[tuple[int, int], ...] = ((1, 100),)
PAPER_REQUESTERS: tuple[tuple[int, int], ...] = (
    (1, 5000),
    (2, 5000),
    (3, 20000),
    (4, 20000),
)


@dataclass(frozen=True)
class Scenario:
    """A named workload that expands to a :class:`SimulationConfig`."""

    #: registry key; lowercase snake_case
    name: str
    #: one-line human description (shown by ``repro-p2pstream scenarios``)
    description: str
    #: first-request arrival pattern 1..4 (see :mod:`repro.simulation.arrivals`)
    arrival_pattern: int = 2
    #: admission policy the scenario is normally studied under
    protocol: str = "dac"
    #: full-scale per-class seed supplier counts, as sorted (class, count)
    seed_suppliers: tuple[tuple[int, int], ...] = PAPER_SEEDS
    #: full-scale per-class requesting peer counts, as sorted (class, count)
    requesting_peers: tuple[tuple[int, int], ...] = PAPER_REQUESTERS
    #: lookup substrate ("directory" or "chord")
    lookup: str = "directory"
    #: probability a probed candidate is unreachable
    down_probability: float = 0.0
    #: session-lifecycle model scheduling supplier departures ("none",
    #: "graceful", "onoff", "sessions", "diurnal", "flash"); model
    #: parameters ride in :attr:`config_overrides`
    lifecycle: str = "none"
    #: any further :class:`SimulationConfig` fields, as (field, value) pairs
    config_overrides: tuple[tuple[str, object], ...] = field(default=())

    def __post_init__(self) -> None:
        if not self.name or not self.name.replace("_", "").isalnum():
            raise ConfigurationError(
                f"scenario name must be non-empty snake_case, got {self.name!r}"
            )
        if not self.description:
            raise ConfigurationError(f"scenario {self.name!r} needs a description")

    # ------------------------------------------------------------------
    def build_config(self, scale: float = 1.0, **overrides: object) -> SimulationConfig:
        """Expand to a validated config at ``scale``, with free overrides.

        Scaling happens *before* the overrides are applied, so an override
        of an absolute count (e.g. ``requesting_peers``) is taken verbatim.
        """
        config = SimulationConfig(
            seed_suppliers={c: n for c, n in self.seed_suppliers},
            requesting_peers={c: n for c, n in self.requesting_peers},
            arrival_pattern=self.arrival_pattern,
            protocol=self.protocol,
            lookup=self.lookup,
            down_probability=self.down_probability,
            lifecycle=self.lifecycle,
            **dict(self.config_overrides),
        )
        if scale != 1.0:
            config = config.scaled(scale)
        if overrides:
            config = config.replace(**overrides)
        return config

    def describe(self) -> str:
        """One line for scenario listings."""
        total = sum(n for _, n in self.requesting_peers)
        seeds = sum(n for _, n in self.seed_suppliers)
        return (
            f"{self.name}: {self.description} "
            f"(pattern {self.arrival_pattern}, {self.protocol}, "
            f"{seeds} seeds + {total} requesters at full scale)"
        )
