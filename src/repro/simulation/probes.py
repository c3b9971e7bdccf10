"""Composable metric probes and the :class:`MetricsPipeline` behind them.

These are the metrics behind every figure and table of the paper, one
probe per paper artifact, so a study subscribes only to the series it
needs (``SimulationConfig.probes``) and the hot path skips the untouched
accumulators (and, through
:class:`~repro.simulation.samplers.Samplers`, never even schedules the
sampler events of unsubscribed probes — the Figure-7 snapshot walks the
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

The cheap cumulative event counters (requests, rejections, admissions,
reminders, supplier churn) stay in the pipeline core: they cost one dict
increment each, nearly every probe derives from them, and the admission
*rate* artifacts need them even when every optional accumulator is off.

All cumulative series sample *state so far*, matching the paper's
"accumulative" plots.  With every probe enabled (the default), the
pipeline records the full paper evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, ClassVar

from repro.core.model import ClassLadder
from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.capacity import CapacityLedger

__all__ = [
    "SeriesPoint",
    "Probe",
    "CapacityProbe",
    "AdmissionRateProbe",
    "BufferingDelayProbe",
    "FavoredClassProbe",
    "OverallAdmissionProbe",
    "Table1Probe",
    "WaitingTimeProbe",
    "ContinuityProbe",
    "MetricsPipeline",
    "PROBE_NAMES",
    "DEFAULT_PROBES",
]

HOUR = 3600.0


@dataclass(frozen=True, slots=True)
class SeriesPoint:
    """One sample of a time series: simulated hour plus a value."""

    hour: float
    value: float


class Probe:
    """One paper artifact's accumulators and samplers.

    Subclasses override only the hooks their artifact needs; the pipeline
    inspects which hooks are overridden and dispatches exclusively to
    those, so an unused hook costs nothing per event.
    """

    #: registry key (also the ``SimulationConfig.probes`` vocabulary)
    name: ClassVar[str] = "abstract"

    def bind(self, pipeline: "MetricsPipeline") -> None:
        """Attach to the pipeline whose counters the probe derives from."""
        self.pipeline = pipeline
        self.ladder = pipeline.ladder

    # ---- optional event hooks (rare events only; hot-path counters
    # ---- live in the pipeline core) ----------------------------------
    def on_admission(
        self,
        peer_class: int,
        rejections_before: int,
        num_suppliers: int,
        buffering_delay_slots: int,
        waiting_seconds: float,
    ) -> None:
        """A peer was admitted."""

    # ---- optional lifecycle hooks (fire only when a lifecycle model
    # ---- interrupts sessions; see repro.simulation.lifecycle) ---------
    def on_interruption(self, peer_class: int) -> None:
        """A class-``peer_class`` requester's session was interrupted."""

    def on_recovery(
        self, peer_class: int, latency_seconds: float, stall_seconds: float
    ) -> None:
        """An interrupted session was re-admitted and resumed."""

    def on_recovery_retry(self, peer_class: int) -> None:
        """A recovery probe failed; the requester backs off and retries."""

    def on_session_lost(self, peer_class: int) -> None:
        """An interrupted session was permanently lost."""

    def on_session_complete(
        self,
        peer_class: int,
        stall_seconds: float,
        interruptions: int,
        continuity: float,
    ) -> None:
        """A (lifecycle-tracked) session delivered its final byte."""

    # ---- optional sampler hooks (drive which clocks get scheduled) ----
    def sample_capacity(self, now_seconds: float, ledger: "CapacityLedger") -> None:
        """Periodic capacity-clock sample."""

    def sample_rates(self, now_seconds: float) -> None:
        """Periodic rate-clock sample."""

    def sample_favored(
        self, now_seconds: float, lowest_favored_by_class: dict[int, list[int]]
    ) -> None:
        """Periodic favored-class snapshot."""

    # ---- export -------------------------------------------------------
    def export(self) -> dict:
        """This probe's contribution to ``MetricsPipeline.to_dict``."""
        return {}


class CapacityProbe(Probe):
    """Figure 4: hourly capacity (sessions), fractional capacity and
    supplier head count."""

    name = "capacity"

    def bind(self, pipeline: "MetricsPipeline") -> None:
        super().bind(pipeline)
        self.capacity_series: list[SeriesPoint] = []
        self.capacity_fractional_series: list[SeriesPoint] = []
        self.supplier_count_series: list[SeriesPoint] = []

    def sample_capacity(self, now_seconds: float, ledger: "CapacityLedger") -> None:
        hour = now_seconds / HOUR
        self.capacity_series.append(SeriesPoint(hour, float(ledger.sessions)))
        self.capacity_fractional_series.append(
            SeriesPoint(hour, ledger.sessions_fractional)
        )
        self.supplier_count_series.append(
            SeriesPoint(hour, float(ledger.num_suppliers))
        )

    def final_capacity(self) -> float:
        """Last Figure-4 sample (sessions)."""
        return self.capacity_series[-1].value if self.capacity_series else 0.0

    def export(self) -> dict:
        def dump(series: list[SeriesPoint]) -> list[tuple[float, float]]:
            return [(point.hour, point.value) for point in series]

        return {
            "capacity_series": dump(self.capacity_series),
            "capacity_fractional_series": dump(self.capacity_fractional_series),
            "supplier_count_series": dump(self.supplier_count_series),
        }


class AdmissionRateProbe(Probe):
    """Figure 5: hourly cumulative per-class admission rate, in percent."""

    name = "admission_rate"

    def bind(self, pipeline: "MetricsPipeline") -> None:
        super().bind(pipeline)
        self.admission_rate_series: dict[int, list[SeriesPoint]] = {
            c: [] for c in self.ladder.classes
        }

    def sample_rates(self, now_seconds: float) -> None:
        hour = now_seconds / HOUR
        first_requests = self.pipeline.first_requests
        admitted = self.pipeline.admitted
        for peer_class, series in self.admission_rate_series.items():
            first = first_requests[peer_class]
            if first > 0:
                rate = 100.0 * admitted[peer_class] / first
                series.append(SeriesPoint(hour, rate))

    def export(self) -> dict:
        return {
            "admission_rate_series": {
                c: [(p.hour, p.value) for p in series]
                for c, series in self.admission_rate_series.items()
            }
        }


class OverallAdmissionProbe(Probe):
    """Figure 9: hourly cumulative admission rate over all classes."""

    name = "overall_admission"

    def bind(self, pipeline: "MetricsPipeline") -> None:
        super().bind(pipeline)
        self.overall_admission_rate_series: list[SeriesPoint] = []

    def sample_rates(self, now_seconds: float) -> None:
        total_first = sum(self.pipeline.first_requests.values())
        if total_first > 0:
            total_admitted = sum(self.pipeline.admitted.values())
            self.overall_admission_rate_series.append(
                SeriesPoint(now_seconds / HOUR, 100.0 * total_admitted / total_first)
            )

    def export(self) -> dict:
        return {
            "overall_admission_rate_series": [
                (p.hour, p.value) for p in self.overall_admission_rate_series
            ]
        }


class BufferingDelayProbe(Probe):
    """Figure 6: hourly cumulative per-class mean buffering delay (× δt)."""

    name = "buffering_delay"

    def bind(self, pipeline: "MetricsPipeline") -> None:
        super().bind(pipeline)
        self.buffering_delay_slots_sum: dict[int, int] = {
            c: 0 for c in self.ladder.classes
        }
        self.buffering_delay_series: dict[int, list[SeriesPoint]] = {
            c: [] for c in self.ladder.classes
        }

    def on_admission(
        self,
        peer_class: int,
        rejections_before: int,
        num_suppliers: int,
        buffering_delay_slots: int,
        waiting_seconds: float,
    ) -> None:
        self.buffering_delay_slots_sum[peer_class] += buffering_delay_slots

    def sample_rates(self, now_seconds: float) -> None:
        hour = now_seconds / HOUR
        admitted = self.pipeline.admitted
        for peer_class, series in self.buffering_delay_series.items():
            count = admitted[peer_class]
            if count > 0:
                mean = self.buffering_delay_slots_sum[peer_class] / count
                series.append(SeriesPoint(hour, mean))

    def mean_buffering_delay_slots(self) -> dict[int, float]:
        """Final per-class mean buffering delay (Figure 6 endpoint)."""
        admitted = self.pipeline.admitted
        return {
            c: (
                self.buffering_delay_slots_sum[c] / admitted[c]
                if admitted[c]
                else float("nan")
            )
            for c in self.ladder.classes
        }

    def export(self) -> dict:
        return {
            "buffering_delay_series": {
                c: [(p.hour, p.value) for p in series]
                for c, series in self.buffering_delay_series.items()
            }
        }


class FavoredClassProbe(Probe):
    """Figure 7: 3-hourly mean lowest favored class, per supplier class.

    The snapshot behind this probe walks the entire supplier population —
    by far the most expensive observation of a run — so subscribing to it
    only when Figure 7 is actually wanted is the single largest saving of
    the probe refactor.
    """

    name = "favored"

    def bind(self, pipeline: "MetricsPipeline") -> None:
        super().bind(pipeline)
        self.favored_series: dict[int, list[SeriesPoint]] = {
            c: [] for c in self.ladder.classes
        }

    def sample_favored(
        self, now_seconds: float, lowest_favored_by_class: dict[int, list[int]]
    ) -> None:
        hour = now_seconds / HOUR
        for peer_class, values in lowest_favored_by_class.items():
            if values:
                self.favored_series[peer_class].append(
                    SeriesPoint(hour, sum(values) / len(values))
                )

    def export(self) -> dict:
        return {
            "favored_series": {
                c: [(p.hour, p.value) for p in series]
                for c, series in self.favored_series.items()
            }
        }


class Table1Probe(Probe):
    """Table 1: mean rejections suffered before admission (and the
    suppliers-per-session mean that shares its accumulator)."""

    name = "table1"

    def bind(self, pipeline: "MetricsPipeline") -> None:
        super().bind(pipeline)
        self.rejections_before_admission_sum: dict[int, int] = {
            c: 0 for c in self.ladder.classes
        }
        self.suppliers_per_session_sum: dict[int, int] = {
            c: 0 for c in self.ladder.classes
        }

    def on_admission(
        self,
        peer_class: int,
        rejections_before: int,
        num_suppliers: int,
        buffering_delay_slots: int,
        waiting_seconds: float,
    ) -> None:
        self.rejections_before_admission_sum[peer_class] += rejections_before
        self.suppliers_per_session_sum[peer_class] += num_suppliers

    def mean_rejections_before_admission(self) -> dict[int, float]:
        """Table 1: per-class mean rejections suffered before admission."""
        admitted = self.pipeline.admitted
        return {
            c: (
                self.rejections_before_admission_sum[c] / admitted[c]
                if admitted[c]
                else float("nan")
            )
            for c in self.ladder.classes
        }


class WaitingTimeProbe(Probe):
    """Waiting time: per-class mean seconds from first request to admission."""

    name = "waiting"

    def bind(self, pipeline: "MetricsPipeline") -> None:
        super().bind(pipeline)
        self.waiting_seconds_sum: dict[int, float] = {
            c: 0.0 for c in self.ladder.classes
        }

    def on_admission(
        self,
        peer_class: int,
        rejections_before: int,
        num_suppliers: int,
        buffering_delay_slots: int,
        waiting_seconds: float,
    ) -> None:
        self.waiting_seconds_sum[peer_class] += waiting_seconds

    def mean_waiting_seconds(self) -> dict[int, float]:
        """Per-class mean waiting time from first request to admission."""
        admitted = self.pipeline.admitted
        return {
            c: (
                self.waiting_seconds_sum[c] / admitted[c]
                if admitted[c]
                else float("nan")
            )
            for c in self.ladder.classes
        }


class ContinuityProbe(Probe):
    """Playback continuity under session-lifecycle dynamics.

    Everything a mid-stream supplier departure costs the requester, per
    requester class:

    * ``interruptions`` — stalls begun (one per mid-stream departure that
      hit one of the requester's suppliers);
    * ``recovered_sessions`` / ``recovery_retries`` / ``sessions_lost`` —
      how the recovery path fared;
    * ``stall_seconds_sum`` — total playback stall time of *recovered*
      stalls (recovery latency plus the re-buffering delay of the resumed
      session); lost sessions count in ``sessions_lost`` instead;
    * ``recovery_latency_sum`` — seconds from interruption to
      re-admission, over recovered stalls;
    * the **playback continuity index** — per completed session,
      ``playback / (playback + stalls)`` where ``playback`` is the show
      length; 1.0 is stall-free, accumulated here as a per-class mean.

    All counters stay zero when no lifecycle model is active (the probe
    is then pure overhead-free bookkeeping), so it is *not* part of
    :data:`DEFAULT_PROBES`; lifecycle-enabled runs subscribe it
    automatically, and any run can opt in via ``probes=``.
    """

    name = "continuity"

    def bind(self, pipeline: "MetricsPipeline") -> None:
        super().bind(pipeline)
        classes = list(self.ladder.classes)
        self.interruptions: dict[int, int] = {c: 0 for c in classes}
        self.recovered_sessions: dict[int, int] = {c: 0 for c in classes}
        self.recovery_retries: dict[int, int] = {c: 0 for c in classes}
        self.sessions_lost: dict[int, int] = {c: 0 for c in classes}
        self.stall_seconds_sum: dict[int, float] = {c: 0.0 for c in classes}
        self.recovery_latency_sum: dict[int, float] = {c: 0.0 for c in classes}
        self.completed_sessions: dict[int, int] = {c: 0 for c in classes}
        self.interrupted_completions: dict[int, int] = {c: 0 for c in classes}
        self.continuity_sum: dict[int, float] = {c: 0.0 for c in classes}
        self.continuity_series: list[SeriesPoint] = []

    # ---- lifecycle hooks ---------------------------------------------
    def on_interruption(self, peer_class: int) -> None:
        self.interruptions[peer_class] += 1

    def on_recovery(
        self, peer_class: int, latency_seconds: float, stall_seconds: float
    ) -> None:
        self.recovered_sessions[peer_class] += 1
        self.recovery_latency_sum[peer_class] += latency_seconds
        self.stall_seconds_sum[peer_class] += stall_seconds

    def on_recovery_retry(self, peer_class: int) -> None:
        self.recovery_retries[peer_class] += 1

    def on_session_lost(self, peer_class: int) -> None:
        self.sessions_lost[peer_class] += 1

    def on_session_complete(
        self,
        peer_class: int,
        stall_seconds: float,
        interruptions: int,
        continuity: float,
    ) -> None:
        self.completed_sessions[peer_class] += 1
        self.continuity_sum[peer_class] += continuity
        if interruptions:
            self.interrupted_completions[peer_class] += 1

    # ---- sampling ----------------------------------------------------
    def sample_rates(self, now_seconds: float) -> None:
        completed = sum(self.completed_sessions.values())
        if completed > 0:
            mean = sum(self.continuity_sum.values()) / completed
            self.continuity_series.append(SeriesPoint(now_seconds / HOUR, mean))

    # ---- derived -----------------------------------------------------
    def mean_recovery_latency_seconds(self) -> dict[int, float]:
        """Per-class mean seconds from interruption to re-admission."""
        return {
            c: (
                self.recovery_latency_sum[c] / self.recovered_sessions[c]
                if self.recovered_sessions[c]
                else float("nan")
            )
            for c in self.ladder.classes
        }

    def playback_continuity_index(self) -> dict[int, float]:
        """Per-class mean continuity index over completed sessions."""
        return {
            c: (
                self.continuity_sum[c] / self.completed_sessions[c]
                if self.completed_sessions[c]
                else float("nan")
            )
            for c in self.ladder.classes
        }

    def export(self) -> dict:
        return {
            "interruptions": dict(self.interruptions),
            "recovered_sessions": dict(self.recovered_sessions),
            "recovery_retries": dict(self.recovery_retries),
            "sessions_lost": dict(self.sessions_lost),
            "interrupted_completions": dict(self.interrupted_completions),
            "stall_seconds_sum": dict(self.stall_seconds_sum),
            "mean_recovery_latency_seconds": self.mean_recovery_latency_seconds(),
            "playback_continuity_index": self.playback_continuity_index(),
            "continuity_series": [
                (p.hour, p.value) for p in self.continuity_series
            ],
        }


#: probe registry, by config name
_PROBES: dict[str, type[Probe]] = {
    probe.name: probe
    for probe in (
        CapacityProbe,
        AdmissionRateProbe,
        BufferingDelayProbe,
        FavoredClassProbe,
        OverallAdmissionProbe,
        Table1Probe,
        WaitingTimeProbe,
        ContinuityProbe,
    )
}

#: valid values inside ``SimulationConfig.probes``
PROBE_NAMES: tuple[str, ...] = tuple(sorted(_PROBES))

#: the full paper evaluation — what ``probes=None`` subscribes.  The
#: lifecycle-extension ``continuity`` probe is deliberately absent: its
#: artifacts exist only under a lifecycle model, and keeping it out keeps
#: default exports schema-identical to the historical collector.  Runs
#: with ``lifecycle != "none"`` and ``probes=None`` subscribe it
#: automatically (see :class:`~repro.simulation.system.StreamingSystem`).
DEFAULT_PROBES: tuple[str, ...] = (
    "capacity",
    "admission_rate",
    "buffering_delay",
    "favored",
    "overall_admission",
    "table1",
    "waiting",
)

#: series keys every export carries (empty when the probe is unsubscribed),
#: so records and downstream schemas stay total over probe subsets
_PLAIN_SERIES_KEYS = (
    "capacity_series",
    "capacity_fractional_series",
    "supplier_count_series",
    "overall_admission_rate_series",
)
_CLASS_SERIES_KEYS = (
    "admission_rate_series",
    "buffering_delay_series",
    "favored_series",
)


def validate_probes(probes: tuple[str, ...]) -> None:
    """Raise :class:`ConfigurationError` for unknown or duplicate names."""
    seen: set[str] = set()
    for name in probes:
        if name not in _PROBES:
            raise ConfigurationError(
                f"unknown metrics probe {name!r}; known: {', '.join(PROBE_NAMES)}"
            )
        if name in seen:
            raise ConfigurationError(f"duplicate metrics probe {name!r}")
        seen.add(name)


class MetricsPipeline:
    """Event counters plus a dispatch table over the subscribed probes.

    ``probes=None`` subscribes the full paper evaluation
    (:data:`DEFAULT_PROBES`); a tuple of names subscribes exactly those.
    The pipeline exposes the same attribute/method surface as the
    historical monolithic collector — series and accumulators of
    unsubscribed probes read as empty (series) or NaN (means).
    """

    def __init__(
        self, ladder: ClassLadder, probes: tuple[str, ...] | None = None
    ) -> None:
        self.ladder = ladder
        classes = list(ladder.classes)

        # ---- event counters (cumulative, always on) --------------------
        self.first_requests = {c: 0 for c in classes}
        self.requests = {c: 0 for c in classes}
        self.rejections = {c: 0 for c in classes}
        self.admitted = {c: 0 for c in classes}
        self.reminders_left = {c: 0 for c in classes}
        self.supplier_departures = {c: 0 for c in classes}
        self.supplier_rejoins = {c: 0 for c in classes}

        # ---- subscribed probes ----------------------------------------
        names = DEFAULT_PROBES if probes is None else tuple(probes)
        validate_probes(names)
        self.probes: dict[str, Probe] = {}
        for name in names:
            probe = _PROBES[name]()
            probe.bind(self)
            self.probes[name] = probe

        # Dispatch only to probes that override a hook, so unsubscribed
        # (or uninterested) probes cost nothing per event/sample.
        def overriding(hook: str) -> list:
            return [
                getattr(probe, hook)
                for probe in self.probes.values()
                if getattr(type(probe), hook) is not getattr(Probe, hook)
            ]

        self._admission_hooks = overriding("on_admission")
        self._interruption_hooks = overriding("on_interruption")
        self._recovery_hooks = overriding("on_recovery")
        self._recovery_retry_hooks = overriding("on_recovery_retry")
        self._session_lost_hooks = overriding("on_session_lost")
        self._session_complete_hooks = overriding("on_session_complete")
        self._capacity_hooks = overriding("sample_capacity")
        self._rate_hooks = overriding("sample_rates")
        self._favored_hooks = overriding("sample_favored")

    # ------------------------------------------------------------------
    # sampler subscriptions (drive which clocks Samplers schedules)
    # ------------------------------------------------------------------
    @property
    def wants_capacity_samples(self) -> bool:
        """Whether any subscribed probe consumes the capacity clock."""
        return bool(self._capacity_hooks)

    @property
    def wants_rate_samples(self) -> bool:
        """Whether any subscribed probe consumes the rate clock."""
        return bool(self._rate_hooks)

    @property
    def wants_favored_samples(self) -> bool:
        """Whether any subscribed probe consumes the favored snapshot."""
        return bool(self._favored_hooks)

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
        """A peer was admitted; fan out to the subscribed accumulators."""
        self.admitted[peer_class] += 1
        for hook in self._admission_hooks:
            hook(
                peer_class,
                rejections_before,
                num_suppliers,
                buffering_delay_slots,
                waiting_seconds,
            )

    # ------------------------------------------------------------------
    # lifecycle hooks (fire only under a session-lifecycle model)
    # ------------------------------------------------------------------
    def on_interruption(self, peer_class: int) -> None:
        """A requester's session was interrupted by a supplier departure."""
        for hook in self._interruption_hooks:
            hook(peer_class)

    def on_recovery(
        self, peer_class: int, latency_seconds: float, stall_seconds: float
    ) -> None:
        """An interrupted session was re-admitted and resumed."""
        for hook in self._recovery_hooks:
            hook(peer_class, latency_seconds, stall_seconds)

    def on_recovery_retry(self, peer_class: int) -> None:
        """A recovery probe failed; the requester backs off and retries."""
        for hook in self._recovery_retry_hooks:
            hook(peer_class)

    def on_session_lost(self, peer_class: int) -> None:
        """An interrupted session was permanently lost."""
        for hook in self._session_lost_hooks:
            hook(peer_class)

    def on_session_complete(
        self,
        peer_class: int,
        stall_seconds: float,
        interruptions: int,
        continuity: float,
    ) -> None:
        """A lifecycle-tracked session delivered its final byte."""
        for hook in self._session_complete_hooks:
            hook(peer_class, stall_seconds, interruptions, continuity)

    # ------------------------------------------------------------------
    # periodic samplers (driven by the streaming system)
    # ------------------------------------------------------------------
    def sample_capacity(self, now_seconds: float, ledger: "CapacityLedger") -> None:
        """Record the Figure-4 capacity sample at ``now_seconds``."""
        for hook in self._capacity_hooks:
            hook(now_seconds, ledger)

    def sample_rates(self, now_seconds: float) -> None:
        """Record the Figure-5/6/9 cumulative samples at ``now_seconds``."""
        for hook in self._rate_hooks:
            hook(now_seconds)

    def sample_favored(
        self, now_seconds: float, lowest_favored_by_class: dict[int, list[int]]
    ) -> None:
        """Record the Figure-7 snapshot at ``now_seconds``."""
        for hook in self._favored_hooks:
            hook(now_seconds, lowest_favored_by_class)

    # ------------------------------------------------------------------
    # probe state, exposed with the historical collector attribute names
    # ------------------------------------------------------------------
    def _probe_attr(self, name: str, attribute: str, empty):
        probe = self.probes.get(name)
        if probe is None:
            return empty() if callable(empty) else empty
        return getattr(probe, attribute)

    def _empty_class_map(self) -> dict[int, list]:
        return {c: [] for c in self.ladder.classes}

    @property
    def capacity_series(self) -> list[SeriesPoint]:
        """Figure-4 capacity samples."""
        return self._probe_attr("capacity", "capacity_series", list)

    @property
    def capacity_fractional_series(self) -> list[SeriesPoint]:
        """Fractional (bandwidth-unit) capacity samples."""
        return self._probe_attr("capacity", "capacity_fractional_series", list)

    @property
    def supplier_count_series(self) -> list[SeriesPoint]:
        """Supplier head-count samples."""
        return self._probe_attr("capacity", "supplier_count_series", list)

    @property
    def admission_rate_series(self) -> dict[int, list[SeriesPoint]]:
        """Figure-5 per-class cumulative admission rate samples."""
        return self._probe_attr(
            "admission_rate", "admission_rate_series", self._empty_class_map
        )

    @property
    def overall_admission_rate_series(self) -> list[SeriesPoint]:
        """Figure-9 overall cumulative admission rate samples."""
        return self._probe_attr(
            "overall_admission", "overall_admission_rate_series", list
        )

    @property
    def buffering_delay_series(self) -> dict[int, list[SeriesPoint]]:
        """Figure-6 per-class cumulative buffering delay samples."""
        return self._probe_attr(
            "buffering_delay", "buffering_delay_series", self._empty_class_map
        )

    @property
    def favored_series(self) -> dict[int, list[SeriesPoint]]:
        """Figure-7 lowest-favored-class snapshots."""
        return self._probe_attr("favored", "favored_series", self._empty_class_map)

    @property
    def rejections_before_admission_sum(self) -> dict[int, int]:
        """Table-1 accumulator (zeros when the probe is unsubscribed)."""
        return self._probe_attr(
            "table1",
            "rejections_before_admission_sum",
            lambda: {c: 0 for c in self.ladder.classes},
        )

    @property
    def suppliers_per_session_sum(self) -> dict[int, int]:
        """Suppliers-per-session accumulator (shared with Table 1)."""
        return self._probe_attr(
            "table1",
            "suppliers_per_session_sum",
            lambda: {c: 0 for c in self.ladder.classes},
        )

    @property
    def buffering_delay_slots_sum(self) -> dict[int, int]:
        """Figure-6 accumulator (zeros when the probe is unsubscribed)."""
        return self._probe_attr(
            "buffering_delay",
            "buffering_delay_slots_sum",
            lambda: {c: 0 for c in self.ladder.classes},
        )

    @property
    def waiting_seconds_sum(self) -> dict[int, float]:
        """Waiting-time accumulator (zeros when the probe is unsubscribed)."""
        return self._probe_attr(
            "waiting",
            "waiting_seconds_sum",
            lambda: {c: 0.0 for c in self.ladder.classes},
        )

    @property
    def interruptions(self) -> dict[int, int]:
        """Stalls begun by mid-stream departures (continuity probe)."""
        return self._probe_attr(
            "continuity",
            "interruptions",
            lambda: {c: 0 for c in self.ladder.classes},
        )

    @property
    def recovered_sessions(self) -> dict[int, int]:
        """Interrupted sessions re-admitted and resumed (continuity probe)."""
        return self._probe_attr(
            "continuity",
            "recovered_sessions",
            lambda: {c: 0 for c in self.ladder.classes},
        )

    @property
    def sessions_lost(self) -> dict[int, int]:
        """Interrupted sessions lost for good (continuity probe)."""
        return self._probe_attr(
            "continuity",
            "sessions_lost",
            lambda: {c: 0 for c in self.ladder.classes},
        )

    @property
    def stall_seconds_sum(self) -> dict[int, float]:
        """Total stall time of recovered stalls (continuity probe)."""
        return self._probe_attr(
            "continuity",
            "stall_seconds_sum",
            lambda: {c: 0.0 for c in self.ladder.classes},
        )

    @property
    def continuity_series(self) -> list[SeriesPoint]:
        """Hourly mean playback continuity index (continuity probe)."""
        return self._probe_attr("continuity", "continuity_series", list)

    # ------------------------------------------------------------------
    # derived results
    # ------------------------------------------------------------------
    def _nan_map(self) -> dict[int, float]:
        return {c: float("nan") for c in self.ladder.classes}

    def mean_rejections_before_admission(self) -> dict[int, float]:
        """Table 1: per-class mean rejections suffered before admission."""
        probe = self.probes.get("table1")
        return probe.mean_rejections_before_admission() if probe else self._nan_map()

    def mean_buffering_delay_slots(self) -> dict[int, float]:
        """Final per-class mean buffering delay (Figure 6 endpoint)."""
        probe = self.probes.get("buffering_delay")
        return probe.mean_buffering_delay_slots() if probe else self._nan_map()

    def mean_waiting_seconds(self) -> dict[int, float]:
        """Per-class mean waiting time from first request to admission."""
        probe = self.probes.get("waiting")
        return probe.mean_waiting_seconds() if probe else self._nan_map()

    def mean_recovery_latency_seconds(self) -> dict[int, float]:
        """Per-class mean interruption-to-re-admission latency."""
        probe = self.probes.get("continuity")
        return probe.mean_recovery_latency_seconds() if probe else self._nan_map()

    def playback_continuity_index(self) -> dict[int, float]:
        """Per-class mean playback continuity index (1.0 = stall-free)."""
        probe = self.probes.get("continuity")
        return probe.playback_continuity_index() if probe else self._nan_map()

    def admission_rate_percent(self) -> dict[int, float]:
        """Final per-class cumulative admission rate (Figure 5 endpoint).

        Derived from the always-on counters, so it is available under any
        probe subscription.
        """
        return {
            c: (
                100.0 * self.admitted[c] / self.first_requests[c]
                if self.first_requests[c]
                else float("nan")
            )
            for c in self.ladder.classes
        }

    def final_capacity(self) -> float:
        """Last Figure-4 sample (sessions); 0.0 without the capacity probe."""
        probe = self.probes.get("capacity")
        return probe.final_capacity() if probe else 0.0

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
        payload: dict = {
            "first_requests": dict(self.first_requests),
            "requests": dict(self.requests),
            "rejections": dict(self.rejections),
            "admitted": dict(self.admitted),
            "reminders_left": dict(self.reminders_left),
            "supplier_departures": dict(self.supplier_departures),
            "supplier_rejoins": dict(self.supplier_rejoins),
            "mean_rejections_before_admission": self.mean_rejections_before_admission(),
            "mean_buffering_delay_slots": self.mean_buffering_delay_slots(),
            "mean_waiting_seconds": self.mean_waiting_seconds(),
            "admission_rate_percent": self.admission_rate_percent(),
        }
        for key in _PLAIN_SERIES_KEYS:
            payload[key] = []
        for key in _CLASS_SERIES_KEYS:
            payload[key] = {c: [] for c in self.ladder.classes}
        for probe in self.probes.values():
            payload.update(probe.export())
        return payload
