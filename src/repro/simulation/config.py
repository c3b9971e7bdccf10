"""Simulation configuration with the paper's Section 5.1 defaults.

One frozen dataclass holds every knob of the evaluation; the defaults are
exactly the paper's setup:

* 50,100 peers — 100 class-1 "seed" suppliers and 50,000 requesting peers
  distributed 10 / 10 / 40 / 40 % over classes 1–4;
* a 60-minute video;
* ``M = 8`` probed candidates, ``T_out = 20 min`` idle elevation period,
  ``T_bkf = 10 min`` base backoff, ``E_bkf = 2`` backoff exponent;
* a 144-hour horizon with all first requests arriving in the first 72 hours.

Every extension knob defaults to the paper's model: no probe loss
(``down_probability=0``) and no supplier departures (``lifecycle="none"``).
Supplier departures of every kind, graceful or mid-stream, are one
``lifecycle`` model choice configured by the ``lifecycle_*`` fields.

:meth:`SimulationConfig.scaled` shrinks the population (keeping the class
mix and the seed:requester ratio) so benchmarks can run the whole harness at
1/10 scale by default — every reported curve keeps its shape because the
dynamics depend on supply/demand *ratios*, not absolute counts.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from repro.core.model import ClassLadder
from repro.errors import ConfigurationError
from repro.simulation.lifecycle import LIFECYCLE_NAMES, RECOVERY_MODES
from repro.simulation.probes import validate_probes
from repro.streaming.media import MediaFile

__all__ = ["SimulationConfig", "PAPER_CLASS_SHARES"]

MINUTE = 60.0
HOUR = 3600.0

#: Paper: requesting peers are 10% class 1, 10% class 2, 40% class 3, 40% class 4.
PAPER_CLASS_SHARES: dict[int, float] = {1: 0.10, 2: 0.10, 3: 0.40, 4: 0.40}


@dataclass(frozen=True)
class SimulationConfig:
    """Full description of one simulation run (paper defaults)."""

    # ----- population -------------------------------------------------
    #: per-class counts of seed supplying peers (paper: 100 class-1 seeds)
    seed_suppliers: dict[int, int] = field(default_factory=lambda: {1: 100})
    #: per-class counts of requesting peers (paper: 5000/5000/20000/20000)
    requesting_peers: dict[int, int] = field(
        default_factory=lambda: {1: 5000, 2: 5000, 3: 20000, 4: 20000}
    )
    num_classes: int = 4

    # ----- media -------------------------------------------------------
    show_seconds: float = 60 * MINUTE
    segment_seconds: float = 5.0

    # ----- protocol parameters (paper Section 5.1) ----------------------
    #: name of the admission policy ("dac", "ndac", or a variant)
    protocol: str = "dac"
    #: number of candidate suppliers probed per request (M)
    probe_candidates: int = 8
    #: idle elevation period T_out
    t_out_seconds: float = 20 * MINUTE
    #: base backoff T_bkf
    t_bkf_seconds: float = 10 * MINUTE
    #: backoff exponential factor E_bkf
    e_bkf: float = 2.0

    # ----- workload ------------------------------------------------------
    #: arrival pattern id, 1..4 (paper Section 5.1)
    arrival_pattern: int = 2
    #: window during which all first requests arrive (paper: 72 h)
    arrival_window_seconds: float = 72 * HOUR
    #: total simulated horizon (paper: 144 h)
    horizon_seconds: float = 144 * HOUR
    #: place first-request times deterministically (inverse CDF) or Poisson
    deterministic_arrivals: bool = True

    # ----- substrates ----------------------------------------------------
    #: "directory" (Napster-style) or "chord"
    lookup: str = "directory"
    #: probability that a probed candidate is down (0 = paper behaviour)
    down_probability: float = 0.0
    #: record control-message statistics
    track_messages: bool = True

    # ----- session lifecycle (extension; "none" = the paper's model) ------
    #: lifecycle model scheduling supplier departures as queued events
    #: ("none", "graceful", "onoff", "sessions", "diurnal", "flash");
    #: "graceful" departures wait for a busy supplier's session to end, the
    #: others interrupt it; see :mod:`repro.simulation.lifecycle`
    lifecycle: str = "none"
    #: mean (graceful/onoff/diurnal) or median (sessions) online period
    lifecycle_mean_up_seconds: float = 8 * HOUR
    #: mean downtime before a departed supplier returns
    lifecycle_mean_down_seconds: float = 30 * MINUTE
    #: log-normal shape of the "sessions" model's online periods
    lifecycle_sigma: float = 1.0
    #: night-time shrink factor of the "diurnal" model's mean online period
    lifecycle_night_factor: float = 0.25
    #: when the "flash" model's mass departure strikes
    lifecycle_flash_at_seconds: float = 36 * HOUR
    #: fraction of suppliers the "flash" model takes down
    lifecycle_flash_fraction: float = 0.3
    #: whether departed suppliers ever return
    lifecycle_rejoin: bool = True
    #: what an interrupted requester does ("resume", "restart", "abandon")
    lifecycle_recovery: str = "resume"

    # ----- measurement ----------------------------------------------------
    #: metric probes to subscribe (None = the full paper evaluation); a
    #: tuple of names from :data:`repro.simulation.probes.PROBE_NAMES`
    #: records only those artifacts' series and means, and the engine
    #: schedules no sampler event for a clock no subscribed probe reads
    probes: tuple[str, ...] | None = None

    # ----- reproducibility -------------------------------------------------
    master_seed: int = 20020701  # ICDCS 2002 was held in July

    # ------------------------------------------------------------------
    def __post_init__(self) -> None:
        ladder = ClassLadder(self.num_classes)
        for peer_class in list(self.seed_suppliers) + list(self.requesting_peers):
            ladder.validate_class(peer_class)
        if min(self.seed_suppliers.values(), default=0) < 0:
            raise ConfigurationError("seed supplier counts must be >= 0")
        if min(self.requesting_peers.values(), default=0) < 0:
            raise ConfigurationError("requesting peer counts must be >= 0")
        if sum(self.seed_suppliers.values()) < 1:
            raise ConfigurationError("the system needs at least one seed supplier")
        if self.probe_candidates < 1:
            raise ConfigurationError(f"M must be >= 1, got {self.probe_candidates}")
        if self.arrival_pattern not in (1, 2, 3, 4):
            raise ConfigurationError(
                f"arrival pattern must be 1..4, got {self.arrival_pattern}"
            )
        if self.arrival_window_seconds > self.horizon_seconds:
            raise ConfigurationError("arrival window cannot exceed the horizon")
        if not 0.0 <= self.down_probability < 1.0:
            raise ConfigurationError(
                f"down_probability must be in [0, 1), got {self.down_probability}"
            )
        if self.t_out_seconds <= 0 or self.t_bkf_seconds <= 0 or self.e_bkf < 1:
            raise ConfigurationError("timer parameters must be positive (E_bkf >= 1)")
        if self.lookup not in ("directory", "chord"):
            raise ConfigurationError(f"unknown lookup substrate {self.lookup!r}")
        if self.lifecycle not in LIFECYCLE_NAMES:
            raise ConfigurationError(
                f"unknown lifecycle model {self.lifecycle!r}; "
                f"known: {', '.join(LIFECYCLE_NAMES)}"
            )
        if self.lifecycle_recovery not in RECOVERY_MODES:
            raise ConfigurationError(
                f"unknown lifecycle recovery mode {self.lifecycle_recovery!r}; "
                f"known: {', '.join(RECOVERY_MODES)}"
            )
        if self.lifecycle != "none":
            if (
                self.lifecycle_mean_up_seconds <= 0
                or self.lifecycle_mean_down_seconds <= 0
            ):
                raise ConfigurationError(
                    "lifecycle mean up/down durations must be > 0"
                )
            if self.lifecycle_sigma < 0:
                raise ConfigurationError(
                    f"lifecycle_sigma must be >= 0, got {self.lifecycle_sigma}"
                )
            if not 0.0 < self.lifecycle_night_factor <= 1.0:
                raise ConfigurationError(
                    "lifecycle_night_factor must be in (0, 1], got "
                    f"{self.lifecycle_night_factor}"
                )
            if self.lifecycle_flash_at_seconds < 0:
                raise ConfigurationError(
                    "lifecycle_flash_at_seconds must be >= 0, got "
                    f"{self.lifecycle_flash_at_seconds}"
                )
            if not 0.0 <= self.lifecycle_flash_fraction <= 1.0:
                raise ConfigurationError(
                    "lifecycle_flash_fraction must be in [0, 1], got "
                    f"{self.lifecycle_flash_fraction}"
                )
        if isinstance(self.probes, str):
            # tuple() would split it into one-letter probe names
            raise ConfigurationError(
                f"probes must be a sequence of probe names, not the string "
                f"{self.probes!r}"
            )
        if self.probes is not None:
            # normalize (JSON round-trips hand us lists) then validate
            object.__setattr__(self, "probes", tuple(self.probes))
            validate_probes(self.probes)

    # ------------------------------------------------------------------
    @property
    def ladder(self) -> ClassLadder:
        """The bandwidth-class ladder in force."""
        return ClassLadder(self.num_classes)

    @property
    def media(self) -> MediaFile:
        """The (single) media file all peers stream."""
        return MediaFile(
            show_seconds=self.show_seconds, segment_seconds=self.segment_seconds
        )

    @property
    def total_requesting(self) -> int:
        """Total number of requesting peers."""
        return sum(self.requesting_peers.values())

    @property
    def total_peers(self) -> int:
        """Seeds plus requesting peers."""
        return self.total_requesting + sum(self.seed_suppliers.values())

    def replace(self, **changes: object) -> "SimulationConfig":
        """Frozen-dataclass ``replace`` with validation re-run."""
        return dataclasses.replace(self, **changes)

    def scaled(self, scale: float) -> "SimulationConfig":
        """Shrink (or grow) the population by ``scale``, keeping ratios.

        Counts are rounded to the nearest integer with a floor of 1 for any
        class that was nonzero, so tiny scales still exercise every class.
        """
        if scale <= 0:
            raise ConfigurationError(f"scale must be > 0, got {scale}")

        def scale_counts(counts: dict[int, int]) -> dict[int, int]:
            return {
                peer_class: max(1, round(count * scale)) if count else 0
                for peer_class, count in counts.items()
            }

        return self.replace(
            seed_suppliers=scale_counts(self.seed_suppliers),
            requesting_peers=scale_counts(self.requesting_peers),
        )

    def describe(self) -> str:
        """One-paragraph human-readable summary of the run."""
        lifecycle = (
            f"lifecycle={self.lifecycle}/{self.lifecycle_recovery}, "
            if self.lifecycle != "none"
            else ""
        )
        return (
            f"{self.protocol} | {self.total_peers} peers "
            f"({sum(self.seed_suppliers.values())} seeds + {self.total_requesting} requesters), "
            f"pattern {self.arrival_pattern}, M={self.probe_candidates}, "
            f"T_out={self.t_out_seconds / MINUTE:.0f}min, "
            f"T_bkf={self.t_bkf_seconds / MINUTE:.0f}min, E_bkf={self.e_bkf:g}, "
            f"horizon {self.horizon_seconds / HOUR:.0f}h, lookup={self.lookup}, "
            f"{lifecycle}seed={self.master_seed}"
        )
