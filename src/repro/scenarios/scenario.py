"""The declarative :class:`Scenario` — a named, reusable workload.

A scenario captures *what the world looks like* — who seeds the system,
who shows up wanting the stream, in what temporal shape, over which
lookup substrate, and with which supplier departures (a lifecycle model)
— independently of *how big* the run is (``scale``) and of
per-experiment knobs (protocol variants, ``M``, timers), which stay free
overrides.

The paper's Section 5.1 setup is :class:`SimulationConfig`'s defaults,
so a scenario states only its ``overrides``: the fields where it departs
from them, at full scale.  Scenarios are frozen and hashable (by name and
description), and :meth:`Scenario.build_config` expands one to a fully
validated :class:`SimulationConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.simulation.config import SimulationConfig

__all__ = ["Scenario"]


@dataclass(frozen=True)
class Scenario:
    """A named workload that expands to a :class:`SimulationConfig`."""

    #: registry key; lowercase snake_case
    name: str
    #: one-line human description (shown by ``repro-p2pstream scenarios``)
    description: str
    #: full-scale :class:`SimulationConfig` fields where the workload
    #: departs from the paper's setup
    overrides: dict[str, object] = field(default_factory=dict, hash=False)

    def __post_init__(self) -> None:
        if not self.name or not self.name.replace("_", "").isalnum():
            raise ConfigurationError(
                f"scenario name must be non-empty snake_case, got {self.name!r}"
            )
        if not self.description:
            raise ConfigurationError(f"scenario {self.name!r} needs a description")

    # ------------------------------------------------------------------
    def build_config(self, scale: float = 1.0, **extra: object) -> SimulationConfig:
        """Expand to a validated config at ``scale``, with free overrides.

        Scaling happens *before* ``extra`` is applied, so an override of
        an absolute count (e.g. ``requesting_peers``) is taken verbatim.
        """
        config = SimulationConfig(**{
            # a copy, so no config shares a population dict with the scenario
            name: dict(value) if isinstance(value, dict) else value
            for name, value in self.overrides.items()
        })
        if scale != 1.0:
            config = config.scaled(scale)
        if extra:
            config = config.replace(**extra)
        return config

    def describe(self) -> str:
        """One line for scenario listings."""
        config = self.build_config()
        seeds = sum(config.seed_suppliers.values())
        return (
            f"{self.name}: {self.description} "
            f"(pattern {config.arrival_pattern}, {config.protocol}, "
            f"{seeds} seeds + {config.total_requesting} requesters at full scale)"
        )
