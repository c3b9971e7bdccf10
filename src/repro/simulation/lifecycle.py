"""Session-lifecycle dynamics: event-driven peer departures and returns.

The paper treats peer unavailability as an *admission-time* condition: a
probed candidate may be "down" (``SimulationConfig.down_probability``,
one draw per probe).  This module makes supplier departures first-class
scheduled events of the :class:`~repro.simulation.arrayengine.ArrayEngine`.
Under most models a supplier can die **mid-stream**: its active sessions
are interrupted, and the requesting peers must recover (re-probe,
re-admit, resume from their buffer position) while the continuity
probes charge every stall against playback quality.  The ``graceful``
model instead lets a busy supplier finish its session first.

The models here (:class:`LifecycleModel`) are deterministic timing
generators answering "when does this supplier next depart?" and "when
does it come back?", plus the class attribute ``interrupts_sessions``
saying whether a departure cuts the sessions the supplier serves.  Every
model but ``graceful`` derives its draws from private, per-peer RNGs
seeded by ``(master seed, peer id)``, so event timings are reproducible
and independent of dispatch interleaving.  The engine asks a peer in one
fixed order (see :class:`LifecycleModel`), so its answers are fixed once
it first becomes a supplier: ``sessions``, ``diurnal`` and ``onoff``
draw each peer's timeline then, up to the horizon, store it as an
``array('d')`` and let the RNG go.  The engine turns the answers into
scheduled departure and return events and drives the supply-side
bookkeeping: capacity ledger, lookup registration, idle timers, and the
interruption and recovery of the sessions a departed supplier served.

With the default :class:`NoLifecycle` model the engine schedules
nothing, draws nothing, and runs are bit-identical to a build without
lifecycle events (pinned by ``tests/simulation/test_golden.py``).

Models
------
``none``
    No lifecycle events — the paper's world.
``graceful``
    Exponential online and offline periods drawn from the run's shared
    ``churn`` stream.  A departure waits while the supplier is busy: it
    is re-checked every ``DEPARTURE_RETRY_SECONDS`` until the session
    ends, so no session is ever interrupted.
``onoff``
    Alternating exponential up/down periods on each peer's private,
    stationary timeline from time 0, walked to the peer's activation at
    its first query and drawn on from there through the horizon.
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
These apply to the models whose departures interrupt sessions.

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
from array import array
from typing import TYPE_CHECKING, ClassVar, Protocol

from repro.errors import ConfigurationError, SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.simulation.config import SimulationConfig
    from repro.simulation.randoms import RandomStreams

__all__ = [
    "LifecycleModel",
    "NoLifecycle",
    "GracefulLifecycle",
    "OnOffLifecycle",
    "SessionDurationLifecycle",
    "DiurnalLifecycle",
    "FlashLifecycle",
    "DEPARTURE_RETRY_SECONDS",
    "LIFECYCLE_MODELS",
    "LIFECYCLE_NAMES",
    "RECOVERY_MODES",
    "make_lifecycle",
]

HOUR = 3600.0

#: valid values of ``SimulationConfig.lifecycle_recovery``
RECOVERY_MODES: tuple[str, ...] = ("resume", "restart", "abandon")

#: how long a busy supplier's departure waits before it is re-checked,
#: under a model whose departures let sessions finish
DEPARTURE_RETRY_SECONDS = 300.0

#: the most answers a model draws for one peer at a time, past the ones
#: it opens a timeline with.  A peer whose timeline passes the horizon
#: within one block keeps no RNG; a longer one keeps it and draws the
#: next block when the engine reaches the end.
TIMELINE_BLOCK = 128


class LifecycleModel(Protocol):
    """Per-peer departure/return timing generator.

    Implementations must be deterministic per ``(seed, peer_id)`` and must
    not share RNG state across peers, so that scheduled timings do not
    depend on the order peers are activated in.  The one exception is
    :class:`GracefulLifecycle`, which draws from the run's shared
    ``churn`` stream in event order: its draws interleave there with the
    probe-loss draws (``down_probability``), and the pinned results of
    graceful runs depend on that order.

    The engine asks a peer in one fixed order: :meth:`next_departure`
    when it first becomes a supplier, then :meth:`next_return` at the
    departure time it was given, :meth:`next_departure` at the return
    time, and so on.  Each query's ``now`` is the time the previous
    answer named (the activation time for the first), and once an answer
    lies past the horizon, or a peer departs with rejoin off, the peer is
    never asked again.  A model may rely on that order: ``onoff``,
    ``sessions`` and ``diurnal`` draw a peer's whole timeline at its
    first query and raise :class:`~repro.errors.SimulationError` on any
    other.
    """

    #: registry key (also the ``SimulationConfig.lifecycle`` vocabulary)
    name: ClassVar[str]
    #: whether a departure interrupts the sessions the supplier serves;
    #: when false, a busy supplier's departure waits for its session to
    #: end, sessions are not tracked, and the continuity probe is not
    #: subscribed by default
    interrupts_sessions: ClassVar[bool]

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
    interrupts_sessions = False

    def next_departure(self, peer_id: int, now: float) -> float | None:
        """Never departs."""
        return None

    def next_return(self, peer_id: int, now: float) -> float | None:
        """Never departed, so never returns."""
        return None


class GracefulLifecycle:
    """Graceful supplier churn: a departure lets the current session end.

    Online and offline periods are exponential with means
    ``mean_up_seconds`` and ``mean_down_seconds``, drawn in event order
    from ``rng`` — the run's shared ``churn`` stream, which the probe-loss
    draws also use.  The engine re-checks a busy supplier's departure
    every :data:`DEPARTURE_RETRY_SECONDS` instead of interrupting its
    session.
    """

    name = "graceful"
    interrupts_sessions = False

    def __init__(
        self, mean_up_seconds: float, mean_down_seconds: float, rng: random.Random
    ) -> None:
        self._mean_up = mean_up_seconds
        self._mean_down = mean_down_seconds
        self._rng = rng

    def next_departure(self, peer_id: int, now: float) -> float | None:
        return now + self._rng.expovariate(1.0 / self._mean_up)

    def next_return(self, peer_id: int, now: float) -> float | None:
        return now + self._rng.expovariate(1.0 / self._mean_down)


class _DrawnTimeline:
    """Each peer's departure and return times, drawn at its first query.

    The shared half of :class:`OnOffLifecycle`,
    :class:`SessionDurationLifecycle` and :class:`DiurnalLifecycle`,
    which differ in :meth:`_rng`, the peer's private RNG, :meth:`_up`,
    the online-period draw, and :meth:`_open`, the answers a peer starts
    from.  A peer's first :meth:`next_departure` draws its answers from
    its private RNG, in the order the engine asks for them: after the
    opening ones, each is the previous answer plus one draw, an online
    period for a departure and an exponential downtime for a return, up
    to the first answer past the horizon.  They are stored as an
    ``array('d')`` after the activation time, and later queries read
    them in turn.  At most :data:`TIMELINE_BLOCK` answers are drawn
    past the opening ones at a time, so only a peer whose timeline is
    longer than that keeps its RNG, to draw the next block when the
    engine reaches the end.  A query out of the engine's order raises
    :class:`~repro.errors.SimulationError`.
    """

    name: ClassVar[str]
    interrupts_sessions = True

    def __init__(self, mean_down_seconds: float, horizon: float, seed: int) -> None:
        self._mean_down = mean_down_seconds
        self._horizon = horizon
        self._seed = seed
        #: peer id -> the last answer given (or the activation time), then
        #: the answers to come; odd indices are departures, even ones returns
        self._timelines: dict[int, array] = {}
        #: peer id -> index of the last answer given in its timeline
        self._cursors: dict[int, int] = {}
        #: peer id -> RNG of a timeline that still ends before the horizon
        self._rngs: dict[int, random.Random] = {}

    def _rng(self, peer_id: int) -> random.Random:
        """The peer's private RNG."""
        return random.Random(f"lifecycle:{self.name}:{self._seed}:{peer_id}")

    def _up(self, rng: random.Random, now: float) -> float:
        """One online period of a peer that comes up at ``now``."""
        raise NotImplementedError

    def _open(self, rng: random.Random, now: float) -> list[float]:
        """The activation time ``now``, then any answers that precede the
        first online period; the last one is a return or ``now``."""
        return [now]

    def _draw(self, peer_id: int, rng: random.Random, answers: list[float]) -> array:
        """Store ``answers`` and the block of answers that follows them."""
        now = answers[-1]
        if now <= self._horizon:
            rate_down = 1.0 / self._mean_down
            for _ in range(TIMELINE_BLOCK // 2):
                now += self._up(rng, now)
                answers.append(now)
                if now > self._horizon:
                    break
                now += rng.expovariate(rate_down)
                answers.append(now)
                if now > self._horizon:
                    break
            else:
                self._rngs[peer_id] = rng
        timeline = self._timelines[peer_id] = array("d", answers)
        self._cursors[peer_id] = 0
        return timeline

    def _answer(self, peer_id: int, now: float, kind: int) -> float:
        """The answer after ``now``: a departure (``kind`` 0) or a return (1)."""
        index = self._cursors.get(peer_id)
        timeline = self._timelines.get(peer_id)
        if index is None or index % 2 != kind or timeline[index] != now:
            asked = "return" if kind else "departure"
            raise SimulationError(
                f"{self.name} lifecycle asked for the {asked} of peer "
                f"{peer_id} at {now}, out of the engine's query order"
            )
        index += 1
        if index == len(timeline):
            rng = self._rngs.pop(peer_id, None)
            if rng is None:
                raise SimulationError(
                    f"{self.name} lifecycle asked about peer {peer_id} at "
                    f"{now}, after its last answer, which lies past the horizon"
                )
            timeline = self._draw(peer_id, rng, [now])
            index = 1
        self._cursors[peer_id] = index
        return timeline[index]

    def next_departure(self, peer_id: int, now: float) -> float | None:
        if peer_id not in self._cursors:
            rng = self._rng(peer_id)
            self._draw(peer_id, rng, self._open(rng, now))
        return self._answer(peer_id, now, 0)

    def next_return(self, peer_id: int, now: float) -> float | None:
        return self._answer(peer_id, now, 1)


class OnOffLifecycle(_DrawnTimeline):
    """Alternating exponential up/down periods, deterministic per peer.

    Each peer has a stationary timeline of up and down intervals from
    time 0, drawn from a private RNG seeded by ``(seed, peer_id)``: it
    starts up with probability ``mean_up / (mean_up + mean_down)``, which
    gives *time-correlated* unavailability, and the interval lengths are
    exponential.  A peer's first query walks that timeline from time 0
    to its activation, keeping none of it, and stores the answers from
    there on: a supplier departs at the end of the up interval it was
    activated in (at once, if its timeline has it down already — the
    "down at activation" edge), returns at the end of the next down
    interval, and so on through the horizon.
    """

    name = "onoff"

    def __init__(
        self,
        mean_up_seconds: float,
        mean_down_seconds: float,
        seed: int = 0,
        *,
        horizon: float,
    ) -> None:
        super().__init__(mean_down_seconds, horizon, seed)
        self._mean_up = mean_up_seconds

    def _rng(self, peer_id: int) -> random.Random:
        return random.Random(f"churn:{self._seed}:{peer_id}")

    def _up(self, rng: random.Random, now: float) -> float:
        return rng.expovariate(1.0 / self._mean_up)

    def _open(self, rng: random.Random, now: float) -> list[float]:
        """Walk the timeline from time 0 to the interval holding ``now``."""
        rates = (1.0 / self._mean_up, 1.0 / self._mean_down)
        availability = self._mean_up / (self._mean_up + self._mean_down)
        down = rng.random() >= availability
        end = rng.expovariate(rates[down])
        while end <= now:
            down = not down
            end += rng.expovariate(rates[down])
        if down:
            return [now, now, end]
        if end > self._horizon:
            return [now, end]
        return [now, end, end + rng.expovariate(rates[1])]


class SessionDurationLifecycle(_DrawnTimeline):
    """Trace-shaped session durations: log-normal up, exponential down.

    Measured P2P session lengths are heavy-tailed — most suppliers stay
    minutes-to-hours, a few stay days.  Online periods are log-normal with
    median ``median_up_seconds`` and shape ``sigma`` (``sigma=0`` collapses
    to fixed-length sessions); downtimes are exponential.  Each peer's
    durations come from its own private RNG, drawn at its activation
    through the horizon, so they depend only on its own history.
    """

    name = "sessions"

    def __init__(
        self,
        median_up_seconds: float,
        mean_down_seconds: float,
        sigma: float = 1.0,
        seed: int = 0,
        *,
        horizon: float,
    ) -> None:
        super().__init__(mean_down_seconds, horizon, seed)
        self._mu = math.log(median_up_seconds)
        self._sigma = sigma

    def _up(self, rng: random.Random, now: float) -> float:
        return rng.lognormvariate(self._mu, self._sigma)


class DiurnalLifecycle(_DrawnTimeline):
    """Departures that cluster at night on a 24-hour cycle.

    Online periods are exponential with a time-of-day-dependent mean:
    during the night window (simulated hours 0–8 of each day) the mean
    shrinks by ``night_factor``, so suppliers that come up at night leave
    much sooner.  Downtimes are exponential with a fixed mean.  Each
    peer's periods come from its own private RNG, drawn at its activation
    through the horizon.
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
        *,
        horizon: float,
    ) -> None:
        super().__init__(mean_down_seconds, horizon, seed)
        self._mean_up = mean_up_seconds
        self._night_factor = night_factor

    def _up(self, rng: random.Random, now: float) -> float:
        time_of_day = now % self.DAY_SECONDS
        factor = self._night_factor if time_of_day < self.NIGHT_END_SECONDS else 1.0
        return rng.expovariate(1.0 / (self._mean_up * factor))


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
    interrupts_sessions = True

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


#: the model classes by ``SimulationConfig.lifecycle`` name, so callers can
#: read a model's ``interrupts_sessions`` before the run builds it
LIFECYCLE_MODELS: dict[str, type[LifecycleModel]] = {
    model.name: model
    for model in (
        NoLifecycle,
        GracefulLifecycle,
        OnOffLifecycle,
        SessionDurationLifecycle,
        DiurnalLifecycle,
        FlashLifecycle,
    )
}

#: valid values of ``SimulationConfig.lifecycle``
LIFECYCLE_NAMES: tuple[str, ...] = tuple(LIFECYCLE_MODELS)


def make_lifecycle(
    config: "SimulationConfig", streams: "RandomStreams"
) -> LifecycleModel:
    """Instantiate the lifecycle model a configuration selects.

    Model parameters come from the ``lifecycle_*`` config fields, and the
    run's horizon bounds the per-peer timelines.  Per-peer RNGs are seeded
    from the run's master seed; the ``graceful`` model draws from
    ``streams.churn`` instead.  Either way lifecycle timings are part of
    the run's reproducible randomness.
    """
    name = config.lifecycle
    seed = config.master_seed
    if name == "none":
        return NoLifecycle()
    if name == "graceful":
        return GracefulLifecycle(
            config.lifecycle_mean_up_seconds,
            config.lifecycle_mean_down_seconds,
            streams.churn,
        )
    if name == "onoff":
        return OnOffLifecycle(
            config.lifecycle_mean_up_seconds,
            config.lifecycle_mean_down_seconds,
            seed=seed,
            horizon=config.horizon_seconds,
        )
    if name == "sessions":
        return SessionDurationLifecycle(
            config.lifecycle_mean_up_seconds,
            config.lifecycle_mean_down_seconds,
            sigma=config.lifecycle_sigma,
            seed=seed,
            horizon=config.horizon_seconds,
        )
    if name == "diurnal":
        return DiurnalLifecycle(
            config.lifecycle_mean_up_seconds,
            config.lifecycle_mean_down_seconds,
            night_factor=config.lifecycle_night_factor,
            seed=seed,
            horizon=config.horizon_seconds,
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

