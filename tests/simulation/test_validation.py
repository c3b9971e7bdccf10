"""Unit tests for the post-run invariant auditor."""

import pytest

from repro.scenarios import get_scenario
from repro.simulation.arrayengine import ArrayEngine
from repro.simulation.config import SimulationConfig
from repro.simulation.trace import TraceRecorder
from repro.simulation.validation import AuditReport, audit_system

HOUR = 3600.0

SMALL = SimulationConfig(
    seed_suppliers={1: 4},
    requesting_peers={1: 10, 2: 10, 3: 40, 4: 40},
    arrival_pattern=1,
    master_seed=11,
)


def finished_run(config):
    trace = TraceRecorder()
    engine = ArrayEngine(config, trace=trace)
    engine.run()
    return engine, trace


@pytest.fixture(scope="module")
def finished_system():
    return finished_run(SMALL)


class TestCleanRunPasses:
    def test_state_audit_clean(self, finished_system):
        system, _trace = finished_system
        report = audit_system(system)
        assert report.ok, report.summary()
        assert report.checks_run > 100

    def test_trace_audit_clean(self, finished_system):
        system, trace = finished_system
        report = audit_system(system, trace)
        assert report.ok, report.summary()

    def test_summary_mentions_checks(self, finished_system):
        system, trace = finished_system
        text = audit_system(system, trace).summary()
        assert "audit ok" in text

    def test_ndac_run_also_clean(self):
        system, trace = finished_run(SMALL.replace(protocol="ndac"))
        assert audit_system(system, trace).ok


def demote(system, pid):
    """Turn a promoted supplier back into a plain requester."""
    system.peers.level[pid] = 0


def promoted_requester(system):
    """A non-seed peer that was admitted and then became a supplier."""
    num_seeds = sum(system.config.seed_suppliers.values())
    peers = system.peers
    for pid in range(num_seeds, system.config.total_peers):
        if peers.level[pid] != 0 and not peers.departed[pid]:
            return pid
    raise AssertionError("no promoted requester")


class TestLostSessions:
    """S1 allows exactly one unpromoted admitted peer per lost session."""

    @pytest.fixture
    def abandoned(self):
        config = get_scenario("flash_departure").build_config(
            scale=0.02, lifecycle_recovery="abandon"
        )
        system = ArrayEngine(config)
        system.run()
        assert sum(system.metrics.sessions_lost.values()) > 0
        return system

    def test_lost_sessions_are_not_violations(self, abandoned):
        report = audit_system(abandoned)
        assert report.ok, report.summary()

    def test_one_more_unpromoted_peer_is_flagged(self, abandoned):
        demote(abandoned, promoted_requester(abandoned))
        report = audit_system(abandoned)
        assert any(v.invariant == "S1" for v in report.violations)


#: lifecycle runs whose traces interrupt and resume sessions
LIFECYCLE_RUNS = {
    "flash_departure/abandon": ("flash_departure", {"lifecycle_recovery": "abandon"}),
    "flash_departure/resume": ("flash_departure", {"lifecycle_recovery": "resume"}),
    "diurnal_churn_week": ("diurnal_churn_week", {}),
}


@pytest.mark.parametrize("label", sorted(LIFECYCLE_RUNS))
def test_lifecycle_trace_audits_clean(label):
    """An interrupted session frees its suppliers; a resumed one holds its
    new suppliers only for the remaining transfer."""
    scenario, overrides = LIFECYCLE_RUNS[label]
    config = get_scenario(scenario).build_config(scale=0.02, **overrides)
    system, trace = finished_run(config)
    assert sum(system.metrics.interruptions.values()) > 0
    report = audit_system(system, trace)
    assert report.ok, report.summary()


class TestViolationsDetected:
    def test_ledger_drift_detected(self, finished_system):
        system, _trace = finished_system
        system.ledger.total_units += 1
        report = audit_system(system)
        system.ledger.total_units -= 1  # restore for other tests
        assert not report.ok
        assert any(v.invariant == "S3" for v in report.violations)

    def test_theorem1_mismatch_detected(self, finished_system):
        system, _trace = finished_system
        delays = system.peers.buffering_delay_slots
        victim = next(pid for pid, delay in enumerate(delays) if delay > 0)
        original = delays[victim]
        delays[victim] = original + 1
        report = audit_system(system)
        delays[victim] = original
        assert any(v.invariant == "S4" for v in report.violations)

    def test_double_booked_supplier_detected(self, finished_system):
        system, _trace = finished_system
        trace = TraceRecorder()
        supplier_ids = [0, 1]  # seeds
        # Two overlapping admissions using the same suppliers.
        trace.record("admission", 100.0, peer=9, suppliers=supplier_ids)
        trace.record("admission", 200.0, peer=10, suppliers=supplier_ids)
        report = audit_system(system, trace)
        assert any(v.invariant == "T1" for v in report.violations)

    def test_interrupted_suppliers_are_free_at_once(self, finished_system):
        system, _trace = finished_system
        trace = TraceRecorder()
        supplier_ids = [0, 1]  # seeds
        trace.record("admission", 100.0, peer=9, suppliers=supplier_ids)
        trace.record(
            "session_interrupted", 200.0, peer=9, departed=supplier_ids[0],
            remaining_seconds=3500.0,
        )
        trace.record("admission", 300.0, peer=10, suppliers=supplier_ids)
        report = audit_system(system, trace)
        assert not any(v.invariant == "T1" for v in report.violations)

    def test_busy_supplier_after_resume_detected(self, finished_system):
        system, _trace = finished_system
        trace = TraceRecorder()
        supplier_ids = [0, 1]  # seeds
        trace.record("admission", 100.0, peer=9, suppliers=supplier_ids)
        trace.record(
            "session_interrupted", 200.0, peer=9, departed=supplier_ids[0],
            remaining_seconds=3500.0,
        )
        # resumed onto the same suppliers: busy again until 3000 + 3500,
        # past the original admission's show time
        trace.record(
            "session_resumed", 3000.0, peer=9, suppliers=supplier_ids,
            remaining_seconds=3500.0,
        )
        trace.record("admission", 4000.0, peer=10, suppliers=supplier_ids)
        report = audit_system(system, trace)
        assert any(v.invariant == "T1" for v in report.violations)

    def test_under_provisioned_session_detected(self, finished_system):
        system, _trace = finished_system
        trace = TraceRecorder()
        trace.record("admission", 100.0, peer=9, suppliers=[0])  # one seed
        report = audit_system(system, trace)
        assert any(v.invariant == "T2" for v in report.violations)

    def test_wrong_backoff_detected(self, finished_system):
        system, _trace = finished_system
        trace = TraceRecorder()
        trace.record(
            "rejection", 50.0, peer=9, peer_class=3, rejections=2,
            backoff_seconds=999.0,
        )
        report = audit_system(system, trace)
        assert any(v.invariant == "T3" for v in report.violations)

    def test_time_travel_detected(self, finished_system):
        system, _trace = finished_system
        trace = TraceRecorder()
        trace.record("rejection", 50.0, peer=1, peer_class=3, rejections=1,
                     backoff_seconds=600.0)
        trace.record("rejection", 10.0, peer=2, peer_class=3, rejections=1,
                     backoff_seconds=600.0)
        report = audit_system(system, trace)
        assert any(v.invariant == "T4" for v in report.violations)


class TestReportMechanics:
    def test_empty_report_is_ok(self):
        assert AuditReport().ok

    def test_add_flips_ok(self):
        report = AuditReport()
        report.add("S1", "boom")
        assert not report.ok
        assert "boom" in report.summary()


def _scenario_config(name, **overrides):
    return get_scenario(name).build_config(scale=0.02, **overrides)


#: runs that end with requesters still streaming, or with lost sessions
#: and no continuity probe subscribed
UNPROMOTED_RUNS = {
    "pattern1/72h": lambda: SimulationConfig(
        arrival_pattern=1, horizon_seconds=72 * HOUR
    ).scaled(0.02),
    "heavy_churn/37h": lambda: _scenario_config(
        "heavy_churn", horizon_seconds=37 * HOUR, arrival_window_seconds=37 * HOUR
    ),
    "flash_departure/37h": lambda: _scenario_config(
        "flash_departure",
        horizon_seconds=37 * HOUR,
        arrival_window_seconds=37 * HOUR,
    ),
    "diurnal_churn_week": lambda: _scenario_config(
        "diurnal_churn_week", horizon_seconds=7 * 24 * HOUR
    ),
    "flash_departure/abandon/capacity-only": lambda: _scenario_config(
        "flash_departure", lifecycle_recovery="abandon", probes=("capacity",)
    ),
}


@pytest.mark.parametrize("label", sorted(UNPROMOTED_RUNS))
def test_s1_spares_live_and_lost_sessions(label):
    """A requester still streaming at the horizon is promoted only when its
    transfer ends, and a lost session counts whatever the subscription."""
    system = ArrayEngine(UNPROMOTED_RUNS[label]())
    system.run()
    report = audit_system(system)
    assert report.ok, report.summary()
