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
    Alternating exponential up/down periods on each peer's private
    timeline, drawn through the horizon at the peer's first query and
    read off as scheduled departure/return events.
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

import bisect
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

#: the most answers a model draws for one peer at a time.  A peer whose
#: timeline passes the horizon within one block keeps no RNG; a longer
#: one keeps it and draws the next block when the engine reaches the end.
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
    never asked again.  A model may rely on that order: ``sessions`` and
    ``diurnal`` draw a peer's whole timeline at its first query and raise
    :class:`~repro.errors.SimulationError` on any other, and ``onoff``
    raises for a query past the timeline it drew.
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


class OnOffLifecycle:
    """Alternating exponential up/down periods, deterministic per peer.

    Each peer's timeline of up/down boundaries, starting at time 0, is
    drawn from a private RNG seeded by ``(seed, peer_id)`` at the peer's
    first query: up to the query time, then on through the horizon, at
    most :data:`TIMELINE_BLOCK` boundaries past the query at a time.  It
    is stored as an ``array('d')``, and the RNG is let go once the
    timeline passes the horizon.  Peers start up with probability
    ``mean_up / (mean_up + mean_down)`` (the stationary distribution),
    which gives *time-correlated* unavailability; a peer that starts down
    gets a zero-length first up interval, so even intervals are up and
    odd ones down.  A supplier active at ``now`` departs at the end of
    the up interval containing ``now`` (immediately, if its timeline has
    it down already — the "down at activation" edge), and returns at the
    end of the down interval.  Any query time is answered, up to the end
    of the drawn timeline.
    """

    name = "onoff"
    interrupts_sessions = True

    def __init__(
        self,
        mean_up_seconds: float,
        mean_down_seconds: float,
        seed: int = 0,
        *,
        horizon: float,
    ) -> None:
        self._mean_up = mean_up_seconds
        self._mean_down = mean_down_seconds
        self._horizon = horizon
        self._seed = seed
        #: peer id -> boundary times, from 0.0 to past the horizon
        self._timelines: dict[int, array] = {}
        #: peer id -> RNG of a timeline that still ends before the horizon
        self._rngs: dict[int, random.Random] = {}

    def next_transition(self, peer_id: int, now: float) -> tuple[bool, float]:
        """State at ``now`` plus the time of the next up/down flip.

        Returns ``(is_down_now, boundary)`` where ``boundary > now`` is
        the end of the interval containing ``now``.
        """
        boundaries = self._timelines.get(peer_id)
        if boundaries is None or boundaries[-1] <= now:
            boundaries = self._draw(peer_id, boundaries, now)
        # index of the interval containing ``now`` (its boundary is next)
        index = bisect.bisect_right(boundaries, now) - 1
        return index % 2 == 1, boundaries[index + 1]

    def _draw(self, peer_id: int, boundaries: array | None, now: float) -> array:
        """Extend the peer's timeline past ``now``, then toward the horizon."""
        if boundaries is None:
            rng = random.Random(f"churn:{self._seed}:{peer_id}")
            availability = self._mean_up / (self._mean_up + self._mean_down)
            drawn = [0.0] if rng.random() < availability else [0.0, 0.0]
        else:
            rng = self._rngs.pop(peer_id, None)
            if rng is None:
                raise SimulationError(
                    f"onoff query at {now} lies past the timeline of peer "
                    f"{peer_id}, drawn to {boundaries[-1]}"
                )
            drawn = boundaries.tolist()
        means = (self._mean_up, self._mean_down)
        last = drawn[-1]
        ahead = 0  # boundaries drawn past ``now``
        while last <= now or (last <= self._horizon and ahead < TIMELINE_BLOCK):
            last += rng.expovariate(1.0 / means[(len(drawn) - 1) % 2])
            drawn.append(last)
            ahead += last > now
        if last <= self._horizon:
            self._rngs[peer_id] = rng
        boundaries = self._timelines[peer_id] = array("d", drawn)
        return boundaries

    def next_departure(self, peer_id: int, now: float) -> float | None:
        down, boundary = self.next_transition(peer_id, now)
        return now if down else boundary

    def next_return(self, peer_id: int, now: float) -> float | None:
        down, boundary = self.next_transition(peer_id, now)
        return boundary if down else now


class _DrawnTimeline:
    """Each peer's departure and return times, drawn at its first query.

    The shared half of :class:`SessionDurationLifecycle` and
    :class:`DiurnalLifecycle`, which differ only in :meth:`_up`, the
    online-period draw.  A peer's first :meth:`next_departure` draws its
    answers from its private RNG, in the order the engine asks for them:
    each is the previous answer plus one draw, an online period for a
    departure and an exponential downtime for a return, up to the first
    answer past the horizon.  They are stored as an ``array('d')``
    after the activation time, and later queries read them in turn.  At
    most :data:`TIMELINE_BLOCK` answers are drawn at a time, so only a
    peer whose timeline is longer than that keeps its RNG, to draw the
    next block when the engine reaches the end.  A query out of the
    engine's order raises :class:`~repro.errors.SimulationError`.
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

    def _up(self, rng: random.Random, now: float) -> float:
        """One online period of a peer that comes up at ``now``."""
        raise NotImplementedError

    def _draw(self, peer_id: int, rng: random.Random, now: float) -> array:
        """Draw the block of answers that follows ``now``."""
        rate_down = 1.0 / self._mean_down
        answers = [now]
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
            timeline = self._draw(peer_id, rng, now)
            index = 1
        self._cursors[peer_id] = index
        return timeline[index]

    def next_departure(self, peer_id: int, now: float) -> float | None:
        if peer_id not in self._cursors:
            rng = random.Random(f"lifecycle:{self.name}:{self._seed}:{peer_id}")
            self._draw(peer_id, rng, now)
        return self._answer(peer_id, now, 0)

    def next_return(self, peer_id: int, now: float) -> float | None:
        return self._answer(peer_id, now, 1)


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

