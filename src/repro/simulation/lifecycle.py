"""Session-lifecycle dynamics: event-driven peer departures and returns.

The paper treats peer unavailability as an *admission-time* condition — a
probed candidate may be "down" (:mod:`repro.simulation.churn`) — and its
supplier-churn extension is *graceful*: a busy supplier defers departure
until its session ends.  This module promotes churn to first-class
scheduled events on the :class:`~repro.simulation.engine.Simulator`: a
supplier can die **mid-stream**, its active sessions are interrupted, and
the requesting peers must recover (re-probe, re-admit, resume from their
buffer position) while the continuity probes charge every stall against
playback quality.

Two layers live here:

* **Lifecycle models** (:class:`LifecycleModel`) — deterministic per-peer
  timing generators answering "when does this supplier next depart?" and
  "when does it come back?".  Every model derives its draws from private,
  per-peer RNGs seeded by ``(master seed, peer id)``, so event timings are
  reproducible and independent of dispatch interleaving.
* **:class:`LifecycleDynamics`** — the subsystem that turns a model's
  answers into scheduled departure/return events and drives the
  supply-side bookkeeping (capacity ledger, lookup registration, idle
  timers) plus the session interruptions handled by
  :class:`~repro.simulation.requestpath.RequestPath`.

With the default :class:`NoLifecycle` model the subsystem schedules
nothing, draws nothing, and runs are bit-identical to a build without it
(pinned by ``tests/simulation/test_golden.py``).

Models
------
``none``
    No lifecycle events — the paper's world.
``onoff``
    :class:`~repro.simulation.churn.OnOffChurn`-style alternating
    exponential up/down periods, turned from probe-time sampling into
    scheduled departure/return events on the peer's private timeline.
``sessions``
    A session-duration (trace-like) model: heavy-tailed log-normal online
    periods — the shape measured in real P2P session traces — with
    exponential downtimes.
``diurnal``
    Exponential online periods whose mean shrinks at night
    (``lifecycle_night_factor``), clustering departures into the quiet
    hours of a 24 h cycle.
``flash``
    A correlated mass departure: a fixed fraction of the supplier
    population (selected per-peer, deterministically) leaves
    simultaneously at ``lifecycle_flash_at_seconds`` and trickles back
    after exponential downtimes.

Recovery modes (``lifecycle_recovery``)
---------------------------------------
``resume``
    The requester re-probes ``M`` candidates and, once re-admitted,
    resumes from its buffer position — only the *remaining* transfer is
    redone.  Failed recovery probes honor the paper's exponential
    backoff (``T_bkf``/``E_bkf``).
``restart``
    Like ``resume``, but the buffer position is lost: the full transfer
    restarts from the beginning.
``abandon``
    Interrupted sessions fail permanently; the requester never becomes a
    supplier.
"""

from __future__ import annotations

import math
import random
from typing import TYPE_CHECKING, ClassVar, Protocol

from repro.errors import ConfigurationError
from repro.simulation.churn import OnOffChurn

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.simulation.config import SimulationConfig
    from repro.simulation.engine import Simulator
    from repro.simulation.entities import SimPeer
    from repro.simulation.probes import MetricsPipeline
    from repro.simulation.registry import SupplierRegistry
    from repro.simulation.requestpath import RequestPath
    from repro.simulation.trace import TraceRecorder

__all__ = [
    "LifecycleModel",
    "NoLifecycle",
    "OnOffLifecycle",
    "SessionDurationLifecycle",
    "DiurnalLifecycle",
    "FlashLifecycle",
    "LifecycleDynamics",
    "LIFECYCLE_NAMES",
    "RECOVERY_MODES",
    "make_lifecycle",
]

HOUR = 3600.0

#: valid values of ``SimulationConfig.lifecycle``
LIFECYCLE_NAMES: tuple[str, ...] = ("none", "onoff", "sessions", "diurnal", "flash")

#: valid values of ``SimulationConfig.lifecycle_recovery``
RECOVERY_MODES: tuple[str, ...] = ("resume", "restart", "abandon")


class LifecycleModel(Protocol):
    """Per-peer departure/return timing generator.

    Implementations must be deterministic per ``(seed, peer_id)`` and must
    not share RNG state across peers, so that scheduled timings do not
    depend on the order peers are activated in.
    """

    #: registry key (also the ``SimulationConfig.lifecycle`` vocabulary)
    name: ClassVar[str]

    def next_departure(self, peer_id: int, now: float) -> float | None:
        """When the peer (a supplier active at ``now``) next departs.

        ``None`` means "never" — the peer stays for the rest of the run.
        A returned time is always ``>= now``.
        """
        ...

    def next_return(self, peer_id: int, now: float) -> float | None:
        """When the peer (departed at ``now``) comes back online.

        ``None`` means the peer never returns.  A returned time is always
        ``>= now``.
        """
        ...


class NoLifecycle:
    """No lifecycle events — every supplier stays up forever (the paper)."""

    name = "none"

    def next_departure(self, peer_id: int, now: float) -> float | None:
        """Never departs."""
        return None

    def next_return(self, peer_id: int, now: float) -> float | None:
        """Never departed, so never returns."""
        return None


class OnOffLifecycle:
    """Scheduled departures on an :class:`OnOffChurn`-style timeline.

    Each peer alternates exponential up/down periods on a private,
    deterministic, lazily extended timeline (exactly the churn model's
    construction).  Where :class:`~repro.simulation.churn.OnOffChurn`
    *samples* that timeline at probe time, this model reads off the next
    transition so it can be scheduled as an event: a supplier active
    at ``now`` departs at the end of the up interval containing ``now``
    (immediately, if its timeline has it down already — the "down at
    activation" edge), and returns at the end of the down interval.
    """

    name = "onoff"

    def __init__(
        self, mean_up_seconds: float, mean_down_seconds: float, seed: int = 0
    ) -> None:
        self._timeline = OnOffChurn(mean_up_seconds, mean_down_seconds, seed=seed)

    def next_departure(self, peer_id: int, now: float) -> float | None:
        down, boundary = self._timeline.next_transition(peer_id, now)
        return now if down else boundary

    def next_return(self, peer_id: int, now: float) -> float | None:
        down, boundary = self._timeline.next_transition(peer_id, now)
        return boundary if down else now


class SessionDurationLifecycle:
    """Trace-shaped session durations: log-normal up, exponential down.

    Measured P2P session lengths are heavy-tailed — most suppliers stay
    minutes-to-hours, a few stay days.  Online periods are log-normal with
    median ``median_up_seconds`` and shape ``sigma`` (``sigma=0`` collapses
    to fixed-length sessions); downtimes are exponential.  Each peer owns a
    private sequential RNG, so its durations depend only on its own
    activation history.
    """

    name = "sessions"

    def __init__(
        self,
        median_up_seconds: float,
        mean_down_seconds: float,
        sigma: float = 1.0,
        seed: int = 0,
    ) -> None:
        self._mu = math.log(median_up_seconds)
        self._sigma = sigma
        self._mean_down = mean_down_seconds
        self._seed = seed
        self._rngs: dict[int, random.Random] = {}

    def _rng(self, peer_id: int) -> random.Random:
        rng = self._rngs.get(peer_id)
        if rng is None:
            rng = random.Random(f"lifecycle:sessions:{self._seed}:{peer_id}")
            self._rngs[peer_id] = rng
        return rng

    def next_departure(self, peer_id: int, now: float) -> float | None:
        return now + self._rng(peer_id).lognormvariate(self._mu, self._sigma)

    def next_return(self, peer_id: int, now: float) -> float | None:
        return now + self._rng(peer_id).expovariate(1.0 / self._mean_down)


class DiurnalLifecycle:
    """Departures that cluster at night on a 24-hour cycle.

    Online periods are exponential with a time-of-day-dependent mean:
    during the night window (simulated hours 0–8 of each day) the mean
    shrinks by ``night_factor``, so suppliers drawn at night leave much
    sooner.  Downtimes are exponential with a fixed mean.
    """

    name = "diurnal"

    #: length of one simulated day
    DAY_SECONDS = 24 * HOUR
    #: the night window is the first this-many seconds of each day
    NIGHT_END_SECONDS = 8 * HOUR

    def __init__(
        self,
        mean_up_seconds: float,
        mean_down_seconds: float,
        night_factor: float = 0.25,
        seed: int = 0,
    ) -> None:
        self._mean_up = mean_up_seconds
        self._mean_down = mean_down_seconds
        self._night_factor = night_factor
        self._seed = seed
        self._rngs: dict[int, random.Random] = {}

    def _rng(self, peer_id: int) -> random.Random:
        rng = self._rngs.get(peer_id)
        if rng is None:
            rng = random.Random(f"lifecycle:diurnal:{self._seed}:{peer_id}")
            self._rngs[peer_id] = rng
        return rng

    def next_departure(self, peer_id: int, now: float) -> float | None:
        time_of_day = now % self.DAY_SECONDS
        factor = self._night_factor if time_of_day < self.NIGHT_END_SECONDS else 1.0
        return now + self._rng(peer_id).expovariate(1.0 / (self._mean_up * factor))

    def next_return(self, peer_id: int, now: float) -> float | None:
        return now + self._rng(peer_id).expovariate(1.0 / self._mean_down)


class FlashLifecycle:
    """A correlated mass departure at a fixed instant.

    Every peer flips a private, deterministic coin (probability
    ``fraction``); the selected ones depart simultaneously at
    ``at_seconds`` — the worst case for mid-stream recovery, since the
    surviving suppliers absorb every interrupted session at once — and
    return after private exponential downtimes.  Peers that become
    suppliers only after the flash never depart.
    """

    name = "flash"

    def __init__(
        self,
        at_seconds: float,
        fraction: float,
        mean_down_seconds: float,
        seed: int = 0,
    ) -> None:
        self._at = at_seconds
        self._fraction = fraction
        self._mean_down = mean_down_seconds
        self._seed = seed

    def _selected(self, peer_id: int) -> bool:
        if self._fraction <= 0.0:
            return False
        rng = random.Random(f"lifecycle:flash:{self._seed}:{peer_id}")
        return rng.random() < self._fraction

    def next_departure(self, peer_id: int, now: float) -> float | None:
        if now < self._at and self._selected(peer_id):
            return self._at
        return None

    def next_return(self, peer_id: int, now: float) -> float | None:
        rng = random.Random(f"lifecycle:flash:return:{self._seed}:{peer_id}")
        return now + rng.expovariate(1.0 / self._mean_down)


def make_lifecycle(config: "SimulationConfig") -> LifecycleModel:
    """Instantiate the lifecycle model a configuration selects.

    Model parameters come from the ``lifecycle_*`` config fields; per-peer
    RNGs are seeded from the run's master seed, so lifecycle timings are
    part of the run's reproducible randomness.
    """
    name = config.lifecycle
    seed = config.master_seed
    if name == "none":
        return NoLifecycle()
    if name == "onoff":
        return OnOffLifecycle(
            config.lifecycle_mean_up_seconds,
            config.lifecycle_mean_down_seconds,
            seed=seed,
        )
    if name == "sessions":
        return SessionDurationLifecycle(
            config.lifecycle_mean_up_seconds,
            config.lifecycle_mean_down_seconds,
            sigma=config.lifecycle_sigma,
            seed=seed,
        )
    if name == "diurnal":
        return DiurnalLifecycle(
            config.lifecycle_mean_up_seconds,
            config.lifecycle_mean_down_seconds,
            night_factor=config.lifecycle_night_factor,
            seed=seed,
        )
    if name == "flash":
        return FlashLifecycle(
            config.lifecycle_flash_at_seconds,
            config.lifecycle_flash_fraction,
            config.lifecycle_mean_down_seconds,
            seed=seed,
        )
    raise ConfigurationError(
        f"unknown lifecycle model {name!r}; known: {', '.join(LIFECYCLE_NAMES)}"
    )


class LifecycleDynamics:
    """Scheduled supplier departures and returns.

    The registry calls :meth:`on_supplier_active` whenever a peer enters
    (or re-enters) the supplier population; the dynamics then schedule the
    peer's next departure per the model.  A departure removes the supplier
    from the capacity ledger and the lookup substrate, interrupts every
    session it is serving (delegated to
    :meth:`RequestPath.on_supplier_departed`), and — unless the model says
    otherwise — schedules the peer's return, which re-registers it and
    arms its idle-elevation timer again.

    Unlike the registry's *graceful* supplier churn
    (``supplier_mean_online_seconds``), lifecycle departures are abrupt:
    being busy does not defer them.  The two mechanisms are mutually
    exclusive (enforced at config validation).
    """

    def __init__(
        self,
        *,
        sim: "Simulator",
        config: "SimulationConfig",
        model: LifecycleModel,
        metrics: "MetricsPipeline",
        ledger,
        lookup,
        registry: "SupplierRegistry",
        request_path: "RequestPath",
        trace: "TraceRecorder | None" = None,
    ) -> None:
        self.sim = sim
        self.config = config
        self.model = model
        self.metrics = metrics
        self.ledger = ledger
        self.lookup = lookup
        self.registry = registry
        self.request_path = request_path
        self.trace = trace
        self._media_id = config.media.media_id
        self._horizon = config.horizon_seconds
        self._rejoin = config.lifecycle_rejoin

    @property
    def enabled(self) -> bool:
        """Whether the configured model can ever schedule an event."""
        return not isinstance(self.model, NoLifecycle)

    # ------------------------------------------------------------------
    # activation (registry hook)
    # ------------------------------------------------------------------
    def on_supplier_active(self, peer: "SimPeer") -> None:
        """A peer entered the supplier population; schedule its departure."""
        at = self.model.next_departure(peer.peer_id, self.sim.now)
        if at is None or at > self._horizon:
            return
        self.sim.schedule_at(max(at, self.sim.now), self._on_departure, peer)

    # ------------------------------------------------------------------
    # departure / return events
    # ------------------------------------------------------------------
    def _on_departure(self, peer: "SimPeer") -> None:
        """The peer leaves abruptly, mid-stream if it is serving."""
        if peer.departed:
            return
        peer.departed = True
        peer.departures += 1
        peer.bump_idle_generation()  # kill any pending elevation timer
        self.ledger.remove_supplier(peer.peer_class)
        self.lookup.unregister_supplier(self._media_id, peer.peer_id)
        self.metrics.on_supplier_departure(peer.peer_class)
        if self.trace:
            self.trace.record(
                "supplier_departed",
                self.sim.now,
                peer=peer.peer_id,
                peer_class=peer.peer_class,
                capacity=self.ledger.sessions,
            )
        # Interrupting sessions runs *after* the departure bookkeeping so
        # recovery probes can no longer discover the departed supplier.
        self.request_path.on_supplier_departed(peer)
        if not self._rejoin:
            return
        at = self.model.next_return(peer.peer_id, self.sim.now)
        if at is None or at > self._horizon:
            return
        self.sim.schedule_at(max(at, self.sim.now), self._on_return, peer)

    def _on_return(self, peer: "SimPeer") -> None:
        """A departed peer comes back online with its old vector."""
        if not peer.departed:
            return
        peer.departed = False
        self.ledger.add_supplier(peer.peer_class)
        self.lookup.register_supplier(self._media_id, peer.peer_id, peer.peer_class)
        self.metrics.on_supplier_rejoin(peer.peer_class)
        self.registry.arm_idle_timer(peer)
        if self.trace:
            self.trace.record(
                "supplier_rejoined",
                self.sim.now,
                peer=peer.peer_id,
                peer_class=peer.peer_class,
                capacity=self.ledger.sessions,
            )
        self.on_supplier_active(peer)
