"""Unit tests for control-message accounting."""

import math
from array import array

import pytest

from repro.network.transport import (
    MESSAGE_BYTES,
    MESSAGE_KINDS,
    ONE_WAY_SECONDS,
    PROBE,
    Transport,
    repeated_sum,
)


def sequential_sums(step, count):
    """``x`` after 0, 1, ..., ``count`` applications of ``x += step``."""
    sums = array("d")
    x = 0.0
    for _ in range(count + 1):
        sums.append(x)
        x += step
    return sums


class TestTransport:
    def test_send_counts_messages_and_bytes(self):
        transport = Transport()
        transport.send("probe")
        transport.send("probe")
        transport.send("reminder")
        snap = transport.snapshot()
        assert snap["count_probe"] == 2
        assert snap["count_reminder"] == 1
        assert snap["messages"] == 3
        assert snap["bytes"] == 2 * 64 + 48

    def test_unknown_kind_raises(self):
        transport = Transport()
        with pytest.raises(KeyError, match="'weird'"):
            transport.send("weird")
        assert transport.counts == [0] * len(MESSAGE_KINDS)

    def test_inline_bumps_and_sends_share_the_counts(self):
        transport = Transport()
        transport.counts[PROBE] += 5
        transport.send("probe")
        assert transport.snapshot()["count_probe"] == 6

    def test_kinds_are_in_name_order_with_their_sizes(self):
        assert list(MESSAGE_KINDS) == sorted(MESSAGE_KINDS)
        sizes = dict(zip(MESSAGE_KINDS, MESSAGE_BYTES))
        assert sizes.pop("session_start") == 128
        assert sizes.pop("reminder") == 48
        assert sizes.pop("session_end") == 32
        assert set(sizes.values()) == {64}

    def test_snapshot_keys_order_and_types(self):
        transport = Transport()
        for kind in ("session_start", "dht_hop", "session_start", "lookup"):
            transport.send(kind)
        snap = transport.snapshot()
        assert list(snap) == [
            "messages",
            "bytes",
            "latency_seconds",
            "count_dht_hop",
            "count_lookup",
            "count_session_start",
        ]
        assert snap["messages"] == 4 and type(snap["messages"]) is int
        assert snap["bytes"] == 2 * 128 + 64 + 64 and type(snap["bytes"]) is int
        assert type(snap["latency_seconds"]) is float
        assert snap["latency_seconds"] == sequential_sums(ONE_WAY_SECONDS, 4)[4]
        assert type(snap["count_session_start"]) is int

    def test_empty_snapshot(self):
        snap = Transport().snapshot()
        assert snap == {"messages": 0, "bytes": 0, "latency_seconds": 0.0}
        assert type(snap["latency_seconds"]) is float


class TestRepeatedSum:
    """``repeated_sum`` must equal the sequential loop bit for bit."""

    def test_matches_the_loop_at_every_count_up_to_5000(self):
        sums = sequential_sums(ONE_WAY_SECONDS, 5000)
        for n, expected in enumerate(sums):
            assert repeated_sum(ONE_WAY_SECONDS, n).hex() == expected.hex(), n

    def test_matches_the_loop_around_every_binade_crossing_to_a_million(self):
        sums = sequential_sums(ONE_WAY_SECONDS, 10**6 + 3)
        crossings = [
            n
            for n in range(1, len(sums))
            if math.frexp(sums[n])[1] != math.frexp(sums[n - 1])[1]
        ]
        assert len(crossings) >= 20  # 0.05 .. 50,000 spans 20 binades
        for crossing in crossings:
            for n in range(max(0, crossing - 3), min(len(sums), crossing + 4)):
                assert repeated_sum(ONE_WAY_SECONDS, n) == sums[n], n

    @pytest.mark.parametrize("step", [0.1, 1 / 3, 0.07, 1e-3, 0.5, 3.0])
    def test_other_steps(self, step):
        sums = sequential_sums(step, 3000)
        for n in range(0, len(sums), 7):
            assert repeated_sum(step, n) == sums[n], n
