"""Message-cost accounting for control traffic.

The protocol's control messages (directory queries, candidate probes,
reminders, session set-up and tear-down, DHT hops) are requests and
responses that in a real deployment would each cost a one-way delay.  The
simulator executes them synchronously — their latency is negligible
against the paper's minutes-scale timers — but this transport records
*what would have been sent*, so experiments can report signalling overhead
(e.g. the probing-traffic cost of large ``M`` that the paper calls out in
Section 5.2(6)).

:class:`Transport` is one preallocated count per message kind, in the
order of :data:`MESSAGE_KINDS`.  The array engine and the lookup
adapters bump those counts inline by index; the cold callers (supplier
registration) call :meth:`Transport.send`, which looks the index up by
kind name.  :meth:`Transport.snapshot` derives bytes and latency from
the counts.

Why one constant per message is exact: every message costs
:data:`ONE_WAY_SECONDS` unless it goes from a peer to itself, and none
does.  A requester is never a supplier while it probes, so no probe,
reminder or session message names the same peer at both ends; directory
and DHT traffic goes to sinks with the ids −1 and −2, below every peer id.
The latency total is therefore :data:`ONE_WAY_SECONDS` added once per
message, which :func:`repeated_sum` replays exactly from the count.
"""

from __future__ import annotations

from math import floor, frexp, ldexp

__all__ = [
    "MESSAGE_BYTES",
    "MESSAGE_KINDS",
    "ONE_WAY_SECONDS",
    "Transport",
    "repeated_sum",
]

#: Every kind of control message the simulation sends, in name order —
#: the order of :attr:`Transport.counts` and of the snapshot's keys.
MESSAGE_KINDS = (
    "dht_hop",
    "lookup",
    "lookup_reply",
    "probe",
    "probe_reply",
    "reminder",
    "session_end",
    "session_interrupt",
    "session_resume",
    "session_start",
)

(
    DHT_HOP,
    LOOKUP,
    LOOKUP_REPLY,
    PROBE,
    PROBE_REPLY,
    REMINDER,
    SESSION_END,
    SESSION_INTERRUPT,
    SESSION_RESUME,
    SESSION_START,
) = range(len(MESSAGE_KINDS))

_KIND_INDEX = {kind: index for index, kind in enumerate(MESSAGE_KINDS)}

#: Nominal control-message sizes in bytes, for overhead reporting.
MESSAGE_BYTES = tuple(
    {"reminder": 48, "session_end": 32, "session_start": 128}.get(kind, 64)
    for kind in MESSAGE_KINDS
)

#: One-way delay charged to every message.
ONE_WAY_SECONDS = 0.05


def repeated_sum(step: float, n: int) -> float:
    """The float that ``x += step``, applied ``n`` times from 0.0, yields.

    Replayed one binade at a time instead of one addition at a time.
    Every float in the binade ``[2**(e-1), 2**e)`` is a multiple of its
    ulp ``2**(e-53)``, so while a sum stays inside the binade each
    addition rounds ``step`` to the same multiple of that ulp: ``k``
    steps add exactly ``k`` times the rounded step.  A step whose rounding
    is a tie (which then depends on the sum's last bit) or that would
    reach the next binade is taken as one real addition.  ``step`` must be
    positive.  (Not ``sum()``: since Python 3.12 it compensates float
    sums, so it would not reproduce a sequential loop.)
    """
    total = 0.0
    remaining = n
    while remaining:
        _, exponent = frexp(total)
        ulps = step / ldexp(1.0, exponent - 53)  # exact: a power-of-two scale
        if total == 0.0 or ulps - floor(ulps) == 0.5:
            total += step
            remaining -= 1
            continue
        units = round(ulps)
        if units == 0:
            return total  # each further step rounds away to nothing
        position = int(ldexp(total, 53 - exponent))  # total in ulps, exact
        # steps that keep the sum strictly below 2**exponent
        steps = min(remaining, (2**53 - 1 - position) // units)
        if steps == 0:
            total += step
            remaining -= 1
            continue
        total = ldexp(float(position + steps * units), exponent - 53)
        remaining -= steps
    return total


class Transport:
    """Per-kind control-message counts, and the summary derived from them.

    ``counts[i]`` is the number of :data:`MESSAGE_KINDS` ``[i]`` messages
    sent so far.  Hot callers bump it directly by index (the module's
    ``PROBE``, ``SESSION_START``, ... constants).
    """

    __slots__ = ("counts",)

    def __init__(self) -> None:
        self.counts = [0] * len(MESSAGE_KINDS)

    def send(self, kind: str) -> None:
        """Record one one-way message of ``kind`` (``KeyError`` if unknown)."""
        self.counts[_KIND_INDEX[kind]] += 1

    def snapshot(self) -> dict[str, float]:
        """Plain-dict summary for metrics and reports.

        ``messages``, ``bytes`` and ``latency_seconds``, then
        ``count_<kind>`` for every kind sent at least once, in name order.
        """
        counts = self.counts
        messages = sum(counts)  # ints: exact in any order
        summary: dict[str, float] = {
            "messages": messages,
            "bytes": sum(count * size for count, size in zip(counts, MESSAGE_BYTES)),
            "latency_seconds": repeated_sum(ONE_WAY_SECONDS, messages),
        }
        for kind, count in zip(MESSAGE_KINDS, counts):
            if count:
                summary[f"count_{kind}"] = count
        return summary
