"""Message accounting checked against the run's own metrics.

Each identity ties a ``message_stats`` count to the event counters the
same run recorded, so the checks need no second implementation to
compare against:

* every probe gets a reply;
* every candidate query (a request, a successful recovery or a failed
  recovery attempt) is one directory round trip;
* every reminder left is one ``reminder`` message;
* every supplier enlisted at admission gets one ``session_start``.
"""

import pytest

from repro.network.lookup import DirectoryLookup
from repro.scenarios import get_scenario
from repro.simulation.arrayengine import ArrayEngine

SCALE = 0.02

CONFIGS = [
    ("paper_default", "dac"),
    ("paper_default", "ndac"),
    ("flaky_network", None),
    ("flash_departure", None),
    ("heavy_churn", "ndac"),
    ("unstable_suppliers_100k", None),
    # linear elevation: the step column
    ("paper_default", "dac-linear-elevation"),
    ("flash_departure", "dac-linear-elevation"),
]


def build(name, protocol):
    config = get_scenario(name).build_config(scale=SCALE)
    if protocol is not None:
        config = config.replace(protocol=protocol)
    return config.replace(track_messages=True)


@pytest.mark.parametrize(
    "name, protocol", CONFIGS, ids=[f"{n}-{p or 'own'}" for n, p in CONFIGS]
)
def test_message_counts_match_the_run_counters(name, protocol):
    # the live collector: ``suppliers_per_session_sum`` is not exported
    engine = ArrayEngine(build(name, protocol))
    metrics = engine.run()
    stats = engine.transport.snapshot()
    assert stats["count_probe"] > 0
    assert stats["count_probe"] == stats["count_probe_reply"]
    assert stats["count_lookup_reply"] == (
        sum(metrics.requests.values())
        + sum(metrics.recovered_sessions.values())
        + sum(metrics.recovery_retries.values())
    )
    assert stats.get("count_reminder", 0) == sum(metrics.reminders_left.values())
    assert stats["count_session_start"] == sum(
        metrics.suppliers_per_session_sum.values()
    )


def test_array_engine_never_calls_round_trip(monkeypatch):
    """The array engine counts queries and probes inline, not per call.

    It samples the directory's entry list itself, so the directory's
    per-query round trip, ``DirectoryLookup.candidates``, never runs.
    """

    def refuse(self, *args):
        raise AssertionError("DirectoryLookup.candidates was called")

    monkeypatch.setattr(DirectoryLookup, "candidates", refuse)
    engine = ArrayEngine(build("paper_default", "dac"))
    engine.run()
    stats = engine.transport.snapshot()
    assert stats["count_lookup_reply"] > 0
    assert stats["count_probe_reply"] > 0
