"""Adaptive maintenance: the scheme-transition controller and its scenarios."""

from __future__ import annotations

import pytest

from repro.exceptions import InvalidParametersError
from repro.simulation.adaptive import (
    ACTION_HOLD,
    ACTION_STRENGTHEN,
    ACTION_WEAKEN,
    AdaptiveMaintenancePolicy,
    AdaptiveSample,
    cold_archive_demotion,
    hot_data_promotion,
    run_adaptive,
)
from repro.simulation.engine import SimulationEvent, build_simulation


def sample(time, availability=1.0, vulnerable=0.0, read_rate=0.5):
    return AdaptiveSample(
        time=time,
        availability=availability,
        vulnerable_fraction=vulnerable,
        read_rate=read_rate,
    )


class TestPolicyLadder:
    def test_punctured_strengthens_to_plain(self):
        policy = AdaptiveMaintenancePolicy("ae-3-2-5-p75")
        assert policy.strengthen_target() == "ae-3-2-5"

    def test_plain_lattice_strengthens_by_raising_alpha(self):
        policy = AdaptiveMaintenancePolicy("ae-2-2-5")
        assert policy.strengthen_target() == "ae-3-2-5"

    def test_alpha_three_is_the_ceiling(self):
        policy = AdaptiveMaintenancePolicy("ae-3-2-5")
        assert policy.strengthen_target() is None

    def test_non_ae_promotes_into_the_default_lattice(self):
        policy = AdaptiveMaintenancePolicy("rep-3")
        assert policy.strengthen_target() == "ae-3-2-5"

    def test_plain_lattice_weakens_to_punctured(self):
        policy = AdaptiveMaintenancePolicy("ae-3-2-5", demote_keep_percent=75)
        assert policy.weaken_target() == "ae-3-2-5-p75"

    def test_punctured_and_non_ae_have_nothing_to_shed(self):
        assert AdaptiveMaintenancePolicy("ae-3-2-5-p75").weaken_target() is None
        assert AdaptiveMaintenancePolicy("rs-10-4").weaken_target() is None

    def test_invalid_settings_are_rejected(self):
        with pytest.raises(InvalidParametersError):
            AdaptiveMaintenancePolicy("ae-3-2-5", window=0)
        with pytest.raises(InvalidParametersError):
            AdaptiveMaintenancePolicy("ae-3-2-5", demote_keep_percent=100)
        with pytest.raises(InvalidParametersError):
            AdaptiveMaintenancePolicy(
                "ae-3-2-5", hot_read_rate=0.5, cold_read_rate=0.5
            )
        with pytest.raises(InvalidParametersError):
            AdaptiveMaintenancePolicy("no-such-scheme")


class TestPolicyControlLoop:
    def test_warms_up_before_deciding(self):
        policy = AdaptiveMaintenancePolicy("ae-3-2-5", window=3)
        assert policy.observe(sample(0, read_rate=0.01)).action == ACTION_HOLD
        assert policy.observe(sample(1, read_rate=0.01)).action == ACTION_HOLD
        decision = policy.observe(sample(2, read_rate=0.01))
        assert decision.action == ACTION_WEAKEN
        assert decision.target_id == "ae-3-2-5-p75"
        assert policy.scheme_id == "ae-3-2-5-p75"

    def test_cooldown_prevents_flapping(self):
        policy = AdaptiveMaintenancePolicy("ae-3-2-5", window=2, cooldown=2)
        policy.observe(sample(0, read_rate=0.01))
        assert policy.observe(sample(1, read_rate=0.01)).action == ACTION_WEAKEN
        # Hot samples land during the cooldown: held, not acted on.
        assert policy.observe(sample(2, read_rate=5.0)).action == ACTION_HOLD
        assert policy.observe(sample(3, read_rate=5.0)).action == ACTION_HOLD
        # Once the cooldown expires the (refilled) window acts immediately.
        decision = policy.observe(sample(4, read_rate=5.0))
        assert decision.action == ACTION_STRENGTHEN
        assert decision.target_id == "ae-3-2-5"

    def test_availability_dip_triggers_promotion(self):
        policy = AdaptiveMaintenancePolicy("ae-3-2-5-p75", window=2)
        policy.observe(sample(0, availability=0.99, read_rate=0.5))
        decision = policy.observe(sample(1, availability=0.99, read_rate=0.5))
        assert decision.action == ACTION_STRENGTHEN
        assert "availability" in decision.reason

    def test_vulnerable_data_triggers_promotion(self):
        policy = AdaptiveMaintenancePolicy("ae-2-2-5", window=2)
        policy.observe(sample(0, vulnerable=0.05, read_rate=0.5))
        decision = policy.observe(sample(1, vulnerable=0.05, read_rate=0.5))
        assert decision.action == ACTION_STRENGTHEN
        assert decision.target_id == "ae-3-2-5"

    def test_hold_band_between_hot_and_cold(self):
        policy = AdaptiveMaintenancePolicy("ae-3-2-5", window=2)
        policy.observe(sample(0, read_rate=0.5))
        assert policy.observe(sample(1, read_rate=0.5)).action == ACTION_HOLD

    def test_at_the_ceiling_hot_data_holds(self):
        policy = AdaptiveMaintenancePolicy("ae-3-2-5", window=1)
        decision = policy.observe(sample(0, read_rate=9.0))
        assert decision.action == ACTION_HOLD
        assert "strongest" in decision.reason


class TestRunAdaptive:
    def test_read_rates_must_align_with_the_timeline(self):
        policy = AdaptiveMaintenancePolicy("ae-3-2-5")
        events = [SimulationEvent(time=0.0), SimulationEvent(time=1.0)]
        with pytest.raises(InvalidParametersError, match="read_rates"):
            run_adaptive(policy, events, [0.5], data_blocks=50, location_count=10)

    def test_timeline_replays_like_the_engine(self):
        """Fail, then restore -- the same offline set ``run_events`` reaches."""
        bounced = tuple(range(12))
        events = [SimulationEvent(0.0, fail=bounced, restore=bounced)]
        run = run_adaptive(
            AdaptiveMaintenancePolicy("rep-2"), events, [0.5],
            data_blocks=2_000, location_count=40, seed=11,
        )
        assert run.steps[0].availability == 1.0

    @pytest.mark.parametrize("field", ["fail", "restore"])
    def test_out_of_range_ids_are_refused_before_any_step(self, field):
        policy = AdaptiveMaintenancePolicy("rep-2", window=1)
        observed = []
        policy.observe = observed.append  # any evaluated step would land here
        events = [SimulationEvent(0.0, fail=(1,)), SimulationEvent(1.0, **{field: (99,)})]
        with pytest.raises(InvalidParametersError, match="99"):
            run_adaptive(policy, events, [0.5, 0.5], data_blocks=200, location_count=40)
        assert observed == []

    def test_deterministic_replay(self):
        first = cold_archive_demotion(data_blocks=300, location_count=20)
        second = cold_archive_demotion(data_blocks=300, location_count=20)
        assert first.as_row() == second.as_row()
        assert [d.time for d in first.decisions] == [d.time for d in second.decisions]


class TestScenarios:
    def test_cold_archive_demotion_punctures_the_lattice(self):
        run = cold_archive_demotion(data_blocks=600, location_count=30)
        assert run.initial_scheme == "ae-3-2-5"
        assert run.final_scheme == "ae-3-2-5-p75"
        assert [d.action for d in run.decisions] == [ACTION_WEAKEN]
        assert run.stored_blocks_saved > 0
        assert run.min_availability == 1.0  # demotion never cost a read

    def test_hot_data_promotion_restores_the_plain_lattice(self):
        run = hot_data_promotion(data_blocks=600, location_count=30)
        assert run.initial_scheme == "ae-3-2-5-p75"
        assert run.final_scheme == "ae-3-2-5"
        assert [d.action for d in run.decisions] == [ACTION_STRENGTHEN]
        assert run.stored_blocks_saved < 0  # promotion buys parities back


class TestPuncturedSimulation:
    def test_punctured_placement_stores_fewer_blocks(self):
        plain = build_simulation("ae-3-2-5", 400, 20, seed=2)
        punctured = build_simulation("ae-3-2-5-p75", 400, 20, seed=2)
        assert punctured.data_blocks == plain.data_blocks
        assert punctured.redundancy_blocks < plain.redundancy_blocks
        # p75 keeps roughly three quarters of the parities.
        keep = punctured.redundancy_blocks / plain.redundancy_blocks
        assert 0.6 < keep < 0.9

    def test_punctured_placement_balance_excludes_dropped_parities(self):
        punctured = build_simulation("ae-3-2-5-p75", 400, 20, seed=2)
        assert int(punctured.blocks_per_location().sum()) == punctured.total_blocks

    def test_healthy_punctured_lattice_serves_everything(self):
        punctured = build_simulation("ae-3-2-5-p75", 400, 20, seed=2)
        import numpy as np

        outcome = punctured.run_repair(np.asarray([], dtype=np.int64).reshape(0))
        assert outcome.data_loss == 0
