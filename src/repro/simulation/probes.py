"""The metrics behind every figure and table of the paper: collected, then read.

:class:`MetricsPipeline` is the one flat, mutable collector a run writes
to: counters the engine bumps on every request, admission and lifecycle
event, and series the sampler clocks append to.  Its artifacts are
subscribed by name (``SimulationConfig.probes``), so a study records
only the series it needs, the admission path skips the untouched
accumulators, and
:class:`~repro.simulation.arrayengine.ArrayEngine` never even schedules
the sampler events of an unsubscribed clock (the Figure-7 snapshot walks the
whole supplier population and is the single most expensive observation):

=====================  ==================  ================================
Paper artifact          Probe name          Output
=====================  ==================  ================================
Figure 4                ``capacity``        ``capacity_series`` — hourly
                                            ``(hour, sessions)`` plus the
                                            fractional and supplier-count
                                            series
Figure 5                ``admission_rate``  ``admission_rate_series[class]``
                                            — hourly cumulative admitted /
                                            first-requested, in percent
Figure 6                ``buffering_delay`` ``buffering_delay_series[class]``
                                            — hourly cumulative mean
                                            buffering delay in slots
                                            (× δt), plus the per-class means
Figure 7                ``favored``         ``favored_series[class]`` — per
                                            supplier class, 3-hourly mean of
                                            the lowest favored requesting
                                            class
Figure 9                ``overall_admission`` ``overall_admission_rate_series``
Table 1                 ``table1``          ``mean_rejections_before_admission``
(waiting time)          ``waiting``         ``mean_waiting_seconds[class]``
(lifecycle extension)   ``continuity``      interruption/stall counters,
                                            recovery latency, playback
                                            continuity index
=====================  ==================  ================================

The event counters (requests, rejections, admissions, reminders,
supplier churn, and the lifecycle's interruptions, recoveries and lost
sessions) count on every run.  Each costs one dict increment, and the
admission *rate* artifacts and the audit read them under any
subscription.

When the run ends, :meth:`MetricsPipeline.to_dict` exports the counters,
series and per-class means, and :class:`RunMetrics` is the frozen object
built from that payload.  A live ``SimulationResult`` and a stored
``RunRecord`` both hold one, so the renderers, exports and aggregates
read one type.  An unsubscribed artifact reads there as an empty series,
a NaN mean or zero counts.

All cumulative series sample *state so far*, matching the paper's
"accumulative" plots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.model import ClassLadder
from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.capacity import CapacityLedger

__all__ = [
    "SeriesPoint",
    "MetricsPipeline",
    "RunMetrics",
    "PROBE_NAMES",
    "DEFAULT_PROBES",
]

HOUR = 3600.0


@dataclass(frozen=True, slots=True)
class SeriesPoint:
    """One sample of a time series: simulated hour plus a value."""

    hour: float
    value: float


#: valid values inside ``SimulationConfig.probes``
PROBE_NAMES: tuple[str, ...] = (
    "admission_rate",
    "buffering_delay",
    "capacity",
    "continuity",
    "favored",
    "overall_admission",
    "table1",
    "waiting",
)

#: the full paper evaluation — what ``probes=None`` subscribes.  The
#: ``continuity`` probe is absent, so lifecycle-free exports keep the
#: historical schema; runs under a lifecycle model that interrupts
#: sessions add it (see :class:`~repro.simulation.arrayengine.ArrayEngine`).
DEFAULT_PROBES: tuple[str, ...] = (
    "capacity",
    "admission_rate",
    "buffering_delay",
    "favored",
    "overall_admission",
    "table1",
    "waiting",
)

#: the probes whose series the hourly rate clock appends to
_RATE_PROBES = ("admission_rate", "overall_admission", "buffering_delay", "continuity")
#: the plain series, ``continuity_series`` exported only with its probe
_SERIES = (
    "capacity_series",
    "capacity_fractional_series",
    "supplier_count_series",
    "overall_admission_rate_series",
    "continuity_series",
)
#: the per-class series, exported after the plain ones
_CLASS_SERIES = ("admission_rate_series", "buffering_delay_series", "favored_series")
#: the continuity probe's per-class counters and sums, exported only with it
_CONTINUITY_COUNTS = (
    "interruptions",
    "recovered_sessions",
    "recovery_retries",
    "sessions_lost",
    "interrupted_completions",
    "stall_seconds_sum",
)


def validate_probes(probes: tuple[str, ...]) -> None:
    """Raise :class:`ConfigurationError` for unknown or duplicate names."""
    seen: set[str] = set()
    for name in probes:
        if name not in PROBE_NAMES:
            raise ConfigurationError(
                f"unknown metrics probe {name!r}; known: {', '.join(PROBE_NAMES)}"
            )
        if name in seen:
            raise ConfigurationError(f"duplicate metrics probe {name!r}")
        seen.add(name)


def _dump(series: list[SeriesPoint]) -> list[tuple[float, float]]:
    return [(point.hour, point.value) for point in series]


def _class_means(sums: dict, counts: dict, subscribed: bool) -> dict[int, float]:
    """Per-class ``sums / counts``; NaN unsubscribed or without a count."""
    return {
        c: sums[c] / count if subscribed and count else float("nan")
        for c, count in counts.items()
    }


class MetricsPipeline:
    """Event counters, plus the series and accumulators of the subscribed probes.

    ``probes=None`` subscribes the full paper evaluation
    (:data:`DEFAULT_PROBES`); a tuple of names subscribes exactly those.
    """

    def __init__(
        self, ladder: ClassLadder, probes: tuple[str, ...] | None = None
    ) -> None:
        self.ladder = ladder
        names = DEFAULT_PROBES if probes is None else tuple(probes)
        validate_probes(names)
        #: the subscribed probe names
        self.probes = names
        # tested on every admission
        self._table1 = "table1" in names
        self._buffering_delay = "buffering_delay" in names
        self._waiting = "waiting" in names

        classes = list(ladder.classes)
        # ---- event counters (cumulative, always on) --------------------
        self.first_requests = {c: 0 for c in classes}
        self.requests = {c: 0 for c in classes}
        self.rejections = {c: 0 for c in classes}
        self.admitted = {c: 0 for c in classes}
        self.reminders_left = {c: 0 for c in classes}
        self.supplier_departures = {c: 0 for c in classes}
        self.supplier_rejoins = {c: 0 for c in classes}
        # ---- lifecycle counters (always on; exported with continuity) --
        self.interruptions = {c: 0 for c in classes}
        self.recovered_sessions = {c: 0 for c in classes}
        self.recovery_retries = {c: 0 for c in classes}
        self.sessions_lost = {c: 0 for c in classes}
        self.stall_seconds_sum = {c: 0.0 for c in classes}
        self.recovery_latency_sum = {c: 0.0 for c in classes}
        self.completed_sessions = {c: 0 for c in classes}
        self.interrupted_completions = {c: 0 for c in classes}
        self.continuity_sum = {c: 0.0 for c in classes}
        # ---- admission accumulators (zero unless subscribed) -----------
        self.rejections_before_admission_sum = {c: 0 for c in classes}
        self.suppliers_per_session_sum = {c: 0 for c in classes}
        self.buffering_delay_slots_sum = {c: 0 for c in classes}
        self.waiting_seconds_sum = {c: 0.0 for c in classes}
        # ---- series (empty unless subscribed) --------------------------
        self.capacity_series: list[SeriesPoint] = []
        self.capacity_fractional_series: list[SeriesPoint] = []
        self.supplier_count_series: list[SeriesPoint] = []
        self.overall_admission_rate_series: list[SeriesPoint] = []
        self.continuity_series: list[SeriesPoint] = []
        self.admission_rate_series = {c: [] for c in classes}
        self.buffering_delay_series = {c: [] for c in classes}
        self.favored_series = {c: [] for c in classes}

    # ------------------------------------------------------------------
    # sampler subscriptions (drive which clocks the engine schedules)
    # ------------------------------------------------------------------
    @property
    def wants_capacity_samples(self) -> bool:
        """Whether the Figure-4 capacity clock runs (``capacity``)."""
        return "capacity" in self.probes

    @property
    def wants_rate_samples(self) -> bool:
        """Whether the hourly rate clock runs (any of :data:`_RATE_PROBES`)."""
        return any(name in self.probes for name in _RATE_PROBES)

    @property
    def wants_favored_samples(self) -> bool:
        """Whether the Figure-7 favored snapshot runs (``favored``)."""
        return "favored" in self.probes

    # ------------------------------------------------------------------
    # event hooks
    # ------------------------------------------------------------------
    def on_first_request(self, peer_class: int) -> None:
        """A peer made its first streaming request."""
        self.first_requests[peer_class] += 1
        self.requests[peer_class] += 1

    def on_retry(self, peer_class: int) -> None:
        """A previously rejected peer retried."""
        self.requests[peer_class] += 1

    def on_rejection(self, peer_class: int) -> None:
        """A request (first or retry) was rejected."""
        self.rejections[peer_class] += 1

    def on_reminder(self, peer_class: int) -> None:
        """A rejected class-``peer_class`` peer left one reminder."""
        self.reminders_left[peer_class] += 1

    def on_supplier_departure(self, peer_class: int) -> None:
        """A supplier departed the system (supplier-churn extension)."""
        self.supplier_departures[peer_class] += 1

    def on_supplier_rejoin(self, peer_class: int) -> None:
        """A departed supplier rejoined (supplier-churn extension)."""
        self.supplier_rejoins[peer_class] += 1

    def on_admission(
        self,
        peer_class: int,
        rejections_before: int,
        num_suppliers: int,
        buffering_delay_slots: int,
        waiting_seconds: float,
    ) -> None:
        """A peer was admitted; advance the subscribed accumulators."""
        self.admitted[peer_class] += 1
        if self._table1:
            self.rejections_before_admission_sum[peer_class] += rejections_before
            self.suppliers_per_session_sum[peer_class] += num_suppliers
        if self._buffering_delay:
            self.buffering_delay_slots_sum[peer_class] += buffering_delay_slots
        if self._waiting:
            self.waiting_seconds_sum[peer_class] += waiting_seconds

    # ------------------------------------------------------------------
    # lifecycle hooks (fire only under a session-lifecycle model)
    # ------------------------------------------------------------------
    def on_interruption(self, peer_class: int) -> None:
        """A requester's session was interrupted by a supplier departure."""
        self.interruptions[peer_class] += 1

    def on_recovery(
        self, peer_class: int, latency_seconds: float, stall_seconds: float
    ) -> None:
        """An interrupted session was re-admitted and resumed; its stall is
        the recovery latency plus the resumed session's buffering delay."""
        self.recovered_sessions[peer_class] += 1
        self.recovery_latency_sum[peer_class] += latency_seconds
        self.stall_seconds_sum[peer_class] += stall_seconds

    def on_recovery_retry(self, peer_class: int) -> None:
        """A recovery probe failed; the requester backs off and retries."""
        self.recovery_retries[peer_class] += 1

    def on_session_lost(self, peer_class: int) -> None:
        """An interrupted session was permanently lost."""
        self.sessions_lost[peer_class] += 1

    def on_session_complete(
        self,
        peer_class: int,
        stall_seconds: float,
        interruptions: int,
        continuity: float,
    ) -> None:
        """A lifecycle-tracked session delivered its final byte;
        ``continuity`` is ``playback / (playback + stalls)``."""
        self.completed_sessions[peer_class] += 1
        self.continuity_sum[peer_class] += continuity
        if interruptions:
            self.interrupted_completions[peer_class] += 1

    # ------------------------------------------------------------------
    # periodic samplers (driven by the engine's sampler clocks)
    # ------------------------------------------------------------------
    def sample_capacity(self, now_seconds: float, ledger: "CapacityLedger") -> None:
        """Record the Figure-4 sample (its clock runs only with ``capacity``)."""
        hour = now_seconds / HOUR
        self.capacity_series.append(SeriesPoint(hour, float(ledger.sessions)))
        self.capacity_fractional_series.append(
            SeriesPoint(hour, ledger.sessions_fractional)
        )
        self.supplier_count_series.append(
            SeriesPoint(hour, float(ledger.num_suppliers))
        )

    def sample_rates(self, now_seconds: float) -> None:
        """Record the Figure-5/6/9 and continuity cumulative samples of the
        subscribed probes, which share the hourly rate clock."""
        hour = now_seconds / HOUR
        probes = self.probes
        first_requests = self.first_requests
        admitted = self.admitted
        if "admission_rate" in probes:
            for peer_class, series in self.admission_rate_series.items():
                first = first_requests[peer_class]
                if first > 0:
                    rate = 100.0 * admitted[peer_class] / first
                    series.append(SeriesPoint(hour, rate))
        if "overall_admission" in probes:
            total_first = sum(first_requests.values())
            if total_first > 0:
                total_admitted = sum(admitted.values())
                self.overall_admission_rate_series.append(
                    SeriesPoint(hour, 100.0 * total_admitted / total_first)
                )
        if "buffering_delay" in probes:
            for peer_class, series in self.buffering_delay_series.items():
                count = admitted[peer_class]
                if count > 0:
                    mean = self.buffering_delay_slots_sum[peer_class] / count
                    series.append(SeriesPoint(hour, mean))
        if "continuity" in probes:
            completed = sum(self.completed_sessions.values())
            if completed > 0:
                mean = sum(self.continuity_sum.values()) / completed
                self.continuity_series.append(SeriesPoint(hour, mean))

    def sample_favored(
        self, now_seconds: float, lowest_favored_by_class: dict[int, list[int]]
    ) -> None:
        """Record the Figure-7 snapshot (its clock runs only with ``favored``)."""
        hour = now_seconds / HOUR
        for peer_class, values in lowest_favored_by_class.items():
            if values:
                self.favored_series[peer_class].append(
                    SeriesPoint(hour, sum(values) / len(values))
                )

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-friendly dump of every counter and series.

        The paper-evaluation key set is identical under every probe
        subscription — records stay schema-total over those artifacts,
        with unsubscribed probes contributing empty series and NaN
        means.  The one exception is the opt-in lifecycle ``continuity``
        probe: its keys (``interruptions``, ``continuity_series``, ...)
        appear only when it is subscribed, so lifecycle-free exports
        remain byte-compatible with the historical collector's.
        """
        probes = self.probes
        first = self.first_requests
        admitted = self.admitted
        payload: dict = {
            "first_requests": dict(first),
            "requests": dict(self.requests),
            "rejections": dict(self.rejections),
            "admitted": dict(admitted),
            "reminders_left": dict(self.reminders_left),
            "supplier_departures": dict(self.supplier_departures),
            "supplier_rejoins": dict(self.supplier_rejoins),
            "mean_rejections_before_admission": _class_means(
                self.rejections_before_admission_sum, admitted, "table1" in probes
            ),
            "mean_buffering_delay_slots": _class_means(
                self.buffering_delay_slots_sum, admitted, "buffering_delay" in probes
            ),
            "mean_waiting_seconds": _class_means(
                self.waiting_seconds_sum, admitted, "waiting" in probes
            ),
            # from the always-on counters, so under any subscription
            "admission_rate_percent": {
                c: 100.0 * admitted[c] / first[c] if first[c] else float("nan")
                for c in first
            },
            "capacity_series": _dump(self.capacity_series),
            "capacity_fractional_series": _dump(self.capacity_fractional_series),
            "supplier_count_series": _dump(self.supplier_count_series),
            "overall_admission_rate_series": _dump(
                self.overall_admission_rate_series
            ),
        }
        for name in _CLASS_SERIES:
            payload[name] = {c: _dump(s) for c, s in getattr(self, name).items()}
        if "continuity" in probes:
            payload.update(
                interruptions=dict(self.interruptions),
                recovered_sessions=dict(self.recovered_sessions),
                recovery_retries=dict(self.recovery_retries),
                sessions_lost=dict(self.sessions_lost),
                interrupted_completions=dict(self.interrupted_completions),
                stall_seconds_sum=dict(self.stall_seconds_sum),
                mean_recovery_latency_seconds=_class_means(
                    self.recovery_latency_sum, self.recovered_sessions, True
                ),
                playback_continuity_index=_class_means(
                    self.continuity_sum, self.completed_sessions, True
                ),
                continuity_series=_dump(self.continuity_series),
            )
        return payload


@dataclass(frozen=True)
class RunMetrics:
    """A finished run's metrics, read by every figure, table and export.

    Built from a :meth:`MetricsPipeline.to_dict` payload: the live one
    (``SimulationResult.metrics``) or its JSON copy in a stored record
    (``RunRecord.metrics``), so a fresh run and a cached record read
    through this one type.  It reads the collector's names:

    * the series (``capacity_series``, ``admission_rate_series``, ...)
      as :class:`SeriesPoint` lists, each built on its first read and
      kept;
    * the per-class counters and sums of the payload (``admitted``,
      ``first_requests``, ``interruptions``, ...), as read-only dicts;
    * the per-class means and the final capacity, through the methods
      below.

    An artifact the run did not subscribe reads as an empty series, a NaN
    mean or zero counts.  The object pickles as its payload alone, which
    is what a pool worker sends back.
    """

    payload: dict = field(repr=False)

    def __post_init__(self) -> None:
        # JSON makes the class keys strings; left so, a 10-class ladder
        # would sort '1', '10', '2' and its record would digest differently
        object.__setattr__(self, "payload", {
            name: {int(c): v for c, v in value.items()}
            if isinstance(value, dict) else value
            for name, value in self.payload.items()
        })

    def __reduce__(self):
        return (RunMetrics, (self.payload,))

    def __getattr__(self, name: str):
        # reached only for names the instance does not hold yet
        payload = self.payload
        if name in _SERIES:
            value = [SeriesPoint(h, v) for h, v in payload.get(name, ())]
        elif name in _CLASS_SERIES:
            value = {
                c: [SeriesPoint(h, v) for h, v in points]
                for c, points in payload[name].items()
            }
        elif name in payload:
            return payload[name]
        elif name in _CONTINUITY_COUNTS:
            return dict.fromkeys(payload["admitted"], 0)
        else:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            )
        # kept on the instance, so later reads no longer come here
        object.__setattr__(self, name, value)
        return value

    def _continuity_means(self, name: str) -> dict[int, float]:
        """A continuity mean of the payload; NaN without the probe."""
        if name in self.payload:
            return self.payload[name]
        return dict.fromkeys(self.payload["admitted"], float("nan"))

    def mean_rejections_before_admission(self) -> dict[int, float]:
        """Table 1: per-class mean rejections suffered before admission."""
        return self.payload["mean_rejections_before_admission"]

    def mean_buffering_delay_slots(self) -> dict[int, float]:
        """Final per-class mean buffering delay (Figure 6 endpoint)."""
        return self.payload["mean_buffering_delay_slots"]

    def mean_waiting_seconds(self) -> dict[int, float]:
        """Per-class mean waiting time from first request to admission."""
        return self.payload["mean_waiting_seconds"]

    def mean_recovery_latency_seconds(self) -> dict[int, float]:
        """Per-class mean interruption-to-re-admission latency."""
        return self._continuity_means("mean_recovery_latency_seconds")

    def playback_continuity_index(self) -> dict[int, float]:
        """Per-class mean playback continuity index (1.0 = stall-free)."""
        return self._continuity_means("playback_continuity_index")

    def admission_rate_percent(self) -> dict[int, float]:
        """Final per-class cumulative admission rate (Figure 5 endpoint);
        read under any probe subscription."""
        return self.payload["admission_rate_percent"]

    def final_capacity(self) -> float:
        """Last Figure-4 sample (sessions); 0.0 without the capacity probe."""
        series = self.payload["capacity_series"]
        return series[-1][1] if series else 0.0

    def to_dict(self) -> dict:
        """The JSON-ready payload (class keys as ints)."""
        return self.payload
