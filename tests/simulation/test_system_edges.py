"""Edge-case tests of the streaming system's less-travelled paths."""

import pytest

from repro.simulation.arrayengine import ArrayEngine
from repro.simulation.config import SimulationConfig
from repro.simulation.runner import run_simulation

HOUR = 3600.0


class TestScarceSupply:
    def test_single_seed_system_still_serves_everyone(self):
        # One class-1 seed offers R0/2 — no session can start until... it
        # can't: a lone seed can never aggregate R0, so nobody is ever
        # admitted and every peer retries until the horizon.
        config = SimulationConfig(
            seed_suppliers={1: 1},
            requesting_peers={1: 2, 2: 2, 3: 4, 4: 4},
            arrival_pattern=1,
            master_seed=3,
        )
        metrics = run_simulation(config).metrics
        assert sum(metrics.admitted.values()) == 0
        assert sum(metrics.rejections.values()) > 0
        # capacity stays at the seed's floor(0.5) = 0
        assert metrics.final_capacity() == 0.0

    def test_two_seeds_bootstrap_the_whole_population(self):
        config = SimulationConfig(
            seed_suppliers={1: 2},
            requesting_peers={1: 2, 2: 2, 3: 4, 4: 4},
            arrival_pattern=1,
            master_seed=3,
        )
        metrics = ArrayEngine(config).run()
        assert sum(metrics.admitted.values()) == 12


class TestSmallM:
    def test_m1_can_never_admit_anyone(self):
        # A single candidate offers at most R0/2 < R0.
        config = SimulationConfig(
            seed_suppliers={1: 4},
            requesting_peers={1: 2, 2: 2, 3: 4, 4: 4},
            probe_candidates=1,
            arrival_pattern=1,
            master_seed=3,
        )
        metrics = ArrayEngine(config).run()
        assert sum(metrics.admitted.values()) == 0

    def test_m2_admits_only_via_class1_pairs(self):
        config = SimulationConfig(
            seed_suppliers={1: 6},
            requesting_peers={1: 3, 2: 3, 3: 3, 4: 3},
            probe_candidates=2,
            arrival_pattern=1,
            master_seed=3,
        )
        engine = ArrayEngine(config)
        engine.run()
        served_by = engine.peers.num_suppliers_served_by
        assert any(count != -1 for count in served_by)
        for count in served_by:
            if count != -1:  # admitted
                assert count == 2


class TestHorizonEdges:
    def test_retries_beyond_horizon_are_not_scheduled(self):
        # With a huge backoff, the first rejection pushes the retry past
        # the horizon; the queue must drain without those events.
        config = SimulationConfig(
            seed_suppliers={1: 1},
            requesting_peers={1: 1, 2: 1, 3: 1, 4: 1},
            t_bkf_seconds=1000 * HOUR,
            arrival_pattern=1,
            master_seed=3,
        )
        engine = ArrayEngine(config)
        engine.run()
        assert engine.now <= config.horizon_seconds
        assert not engine._heap

    def test_sessions_straddling_horizon_do_not_promote(self):
        # A peer admitted within the last show time of the horizon has its
        # session-end event beyond the horizon: it is never promoted.
        config = SimulationConfig(
            seed_suppliers={1: 2},
            requesting_peers={1: 1, 2: 1, 3: 1, 4: 1},
            arrival_window_seconds=4 * HOUR,
            horizon_seconds=4 * HOUR + 1800.0,  # half a show past the window
            arrival_pattern=1,
            master_seed=3,
        )
        engine = ArrayEngine(config)
        metrics = engine.run()
        admitted = sum(metrics.admitted.values())
        num_seeds = sum(config.seed_suppliers.values())
        promoted = sum(1 for level in engine.peers.level[num_seeds:] if level)
        assert promoted <= admitted


class TestNoCandidates:
    def test_probe_with_no_registered_suppliers_rejects(self):
        # Force the situation by unregistering the seeds from the lookup.
        config = SimulationConfig(
            seed_suppliers={1: 2},
            requesting_peers={1: 1, 2: 1, 3: 1, 4: 1},
            arrival_pattern=1,
            master_seed=3,
        )
        engine = ArrayEngine(config)
        for seed in range(sum(config.seed_suppliers.values())):
            engine.lookup.unregister_supplier(engine.media.media_id, seed)
        metrics = engine.run()
        assert sum(metrics.admitted.values()) == 0
        assert sum(metrics.rejections.values()) > 0


class TestPolicyVariantsEndToEnd:
    @pytest.mark.parametrize(
        "protocol",
        ["dac-no-reminder", "dac-no-elevation", "dac-linear-elevation",
         "dac-generous-init"],
    )
    def test_every_variant_completes_and_serves(self, protocol):
        config = SimulationConfig(
            seed_suppliers={1: 4},
            requesting_peers={1: 5, 2: 5, 3: 20, 4: 20},
            arrival_pattern=1,
            protocol=protocol,
            master_seed=3,
        )
        metrics = ArrayEngine(config).run()
        assert sum(metrics.admitted.values()) == 50
