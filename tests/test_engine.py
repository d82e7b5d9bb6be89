"""Tests for the scheme-agnostic discrete-event simulation engine."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.codes.lrc import azure_lrc
from repro.core.parameters import AEParameters
from repro.core.rules import input_index, output_index
from repro.exceptions import InvalidParametersError
from repro.simulation.engine import (
    LatticeSimulation,
    SimulationEngine,
    SimulationEvent,
    StripeSimulation,
    build_simulation,
    normalise_events,
    sample_disaster_locations,
    simulate_disasters,
)
from repro.simulation.experiments import ExperimentConfig
from repro.simulation.metrics import describe_scheme
from repro.simulation.traces import p2p_session_trace
from repro.storage.failures import ChurnTrace, Disaster, disaster_for_target
from repro.storage.maintenance import MaintenanceBudget, MaintenancePolicy
from repro.storage.topology import Topology

CONFIG = ExperimentConfig.quick(20_000)

#: Fixed-seed metrics recorded from the three per-scheme models the engine
#: replaced (AE lattice, RS stripes, replication; seed 7, 20,000 blocks,
#: 100 locations).  The engine must reproduce them exactly.
GOLDEN = {
    ("ae-3-2-5", "full", 10): dict(data_loss=0, vulnerable_data=0, rounds=3, repaired_data=1945),
    ("ae-3-2-5", "full", 30): dict(data_loss=0, vulnerable_data=0, rounds=6, repaired_data=5978),
    ("ae-3-2-5", "full", 50): dict(data_loss=20, vulnerable_data=0, rounds=16, repaired_data=10023),
    ("ae-3-2-5", "minimal", 10): dict(data_loss=13, vulnerable_data=112, rounds=1, repaired_data=1932),
    ("ae-3-2-5", "minimal", 30): dict(data_loss=769, vulnerable_data=1821, rounds=1, repaired_data=5209),
    ("ae-3-2-5", "minimal", 50): dict(data_loss=4233, vulnerable_data=4214, rounds=1, repaired_data=5810),
    ("rs-10-4", "minimal", 10): dict(data_loss=67, vulnerable_data=103, repaired_data=1859, blocks_read=12380),
    ("rs-10-4", "minimal", 30): dict(data_loss=3387, vulnerable_data=4833, repaired_data=2535, blocks_read=11190),
    ("rs-10-4", "minimal", 50): dict(data_loss=9521, vulnerable_data=8719, repaired_data=453, blocks_read=1760),
    ("rep-3", "minimal", 10): dict(data_loss=19, vulnerable_data=495),
    ("rep-3", "minimal", 30): dict(data_loss=504, vulnerable_data=3705),
    ("rep-3", "minimal", 50): dict(data_loss=2525, vulnerable_data=7590),
}


class TestGoldenEquivalence:
    """The engine reproduces the replaced models' fixed-seed metrics."""

    @pytest.mark.parametrize("key", sorted(GOLDEN, key=str))
    def test_fixed_seed_metrics(self, key):
        scheme_id, policy_name, percent = key
        offset = {10: 0, 30: 2, 50: 4}[percent]
        failed = sample_disaster_locations(100, percent / 100.0, 7, offset)
        engine = SimulationEngine(
            scheme_id, CONFIG.data_blocks, CONFIG.location_count, CONFIG.seed
        )
        outcome = engine.run_outcome(failed, policy=MaintenancePolicy(policy_name))
        for metric, expected in GOLDEN[key].items():
            got = getattr(outcome, metric if metric != "rounds" else "rounds")
            assert got == expected, (key, metric, got, expected)


class TestBuildSimulation:
    def test_registry_ids_resolve_to_adapters(self):
        assert isinstance(build_simulation("ae-3-2-5", 100), LatticeSimulation)
        for scheme_id in ("rs-10-4", "rep-3", "lrc-azure", "xor-geo"):
            assert isinstance(build_simulation(scheme_id, 100), StripeSimulation)

    def test_settings_codes_and_instances_resolve(self):
        import repro.schemes as schemes

        assert isinstance(build_simulation(AEParameters.triple(2, 5), 100), LatticeSimulation)
        assert isinstance(build_simulation(azure_lrc(), 100), StripeSimulation)
        live = schemes.get("ae-3-2-5-p75", block_size=64)
        assert build_simulation(live, 100).scheme_id == "ae-3-2-5-p75"

    @pytest.mark.parametrize("legacy", [(10, 4), 3])
    def test_tuple_and_int_shorthand_is_refused(self, legacy):
        """The SchemeSpec shim retired: the message names the id spelling."""
        with pytest.raises(InvalidParametersError, match="'rs-10-4', 'rep-3'"):
            build_simulation(legacy, 100)
        with pytest.raises(InvalidParametersError, match="registry id"):
            describe_scheme(legacy)

    def test_placement_shape(self):
        sim = build_simulation("lrc-azure", 1000, location_count=50, seed=1)
        assert sim.data_blocks == 1000
        assert sim.redundancy_blocks == sim.stripes * 4  # LRC(12,2,2): l + r = 4
        # The histogram counts stored blocks, including the zero padding that
        # completes the final stripe.
        assert sim.blocks_per_location().sum() == sim.stripes * sim.code.n

    def test_rejects_unknown_scheme(self):
        with pytest.raises(InvalidParametersError):
            build_simulation("bogus-1", 100)
        with pytest.raises(InvalidParametersError):
            build_simulation(object(), 100)
        # Striping without parities is not a redundancy scheme.
        with pytest.raises(InvalidParametersError):
            build_simulation((5, 0), 100)

    def test_rejects_empty_populations(self):
        for scheme_id in ("ae-1", "rs-10-4"):
            with pytest.raises(InvalidParametersError):
                build_simulation(scheme_id, 0)
            with pytest.raises(InvalidParametersError):
                build_simulation(scheme_id, 10, location_count=0)


class TestVectorisedRules:
    @given(st.sampled_from([(1, 1, 0), (2, 2, 5), (3, 2, 5), (3, 5, 5), (3, 1, 4), (3, 3, 4)]))
    @settings(max_examples=12, deadline=None)
    def test_vectorised_rules_match_scalar_rules(self, spec):
        params = AEParameters(*spec)
        n = 200
        lattice = LatticeSimulation(params, n, location_count=10)
        inputs, outputs = lattice.input_creator, lattice.output_node
        assert inputs.shape == outputs.shape == (n, params.alpha)
        for index in range(1, n + 1):
            for position, strand_class in enumerate(params.strand_classes):
                assert inputs[index - 1, position] == max(
                    input_index(index, strand_class, params), 0
                )
                assert outputs[index - 1, position] == output_index(
                    index, strand_class, params
                )


class TestPhysicalProperties:
    """What any availability model of these codes must get right, whatever
    the seed: block counts, the trivial disasters, and the orderings the
    paper's Figs. 11-13 rest on."""

    def test_lattice_block_counts(self):
        sim = build_simulation("ae-3-2-5", 1000, location_count=50, seed=1)
        assert sim.data_blocks == 1000
        assert sim.parity_blocks == 3000
        assert sim.total_blocks == 4000
        assert sim.blocks_per_location().sum() == 4000

    @pytest.mark.parametrize(
        "scheme_id,encoded,stripes",
        [("rs-10-4", 400_000, 100_000), ("rs-8-2", 250_000, 125_000), ("rs-5-5", 1_000_000, 200_000)],
    )
    def test_stripe_counts_match_paper_examples(self, scheme_id, encoded, stripes):
        """Sec. V-C: one million data blocks under each RS setting."""
        sim = build_simulation(scheme_id, 1_000_000, seed=1)
        assert sim.encoded_blocks == encoded
        assert sim.stripes == stripes

    @pytest.mark.parametrize("scheme_id", ["ae-3-2-5", "rs-10-4", "rep-3"])
    def test_trivial_disasters(self, scheme_id):
        sim = build_simulation(scheme_id, 2_000, location_count=20, seed=3)
        calm = sim.run_repair(np.array([], dtype=np.int64))
        assert (calm.data_loss, calm.vulnerable_data, calm.rounds) == (0, 0, 0)
        assert sim.run_repair(np.arange(20)).data_loss == 2_000

    @pytest.mark.parametrize(
        "weaker_to_stronger,blocks,failed,seed",
        [
            (("ae-1", "ae-2-2-5", "ae-3-2-5"), 30_000, 40, 6),
            (("rs-8-2", "rs-4-12"), 50_000, 30, 4),
            (("rep-2", "rep-4"), 50_000, 40, 9),
        ],
    )
    def test_stronger_code_loses_less(self, weaker_to_stronger, blocks, failed, seed):
        outcomes = [
            build_simulation(scheme_id, blocks, seed=seed).run_repair(
                np.arange(failed), policy=MaintenancePolicy.MINIMAL
            )
            for scheme_id in weaker_to_stronger
        ]
        losses = [outcome.data_loss for outcome in outcomes]
        assert losses == sorted(losses, reverse=True)
        assert losses[0] > losses[-1]
        if weaker_to_stronger[0].startswith("rep"):
            assert outcomes[-1].vulnerable_data < outcomes[0].vulnerable_data

    def test_lattice_minimal_maintenance_repairs_no_parities(self):
        sim = build_simulation("ae-3-2-5", 20_000, seed=5)
        outcome = sim.run_repair(np.arange(20), policy=MaintenancePolicy.MINIMAL)
        assert outcome.repaired_redundancy == 0
        assert outcome.vulnerable_data > 0

    def test_rs_placement_skew_observation(self):
        """Only a fraction of RS(10,4) stripes spread their 14 blocks over 14
        distinct locations when n = 100 (Sec. V-C reports 38,429 of 100,000)."""
        sim = build_simulation("rs-10-4", 100_000, location_count=100, seed=6)
        assert 0.30 * sim.stripes < sim.stripes_fully_spread() < 0.48 * sim.stripes

    def test_replication_repairs_are_all_single_failures(self):
        sim = build_simulation("rep-2", 5_000, seed=10)
        assert sim.run_repair(np.arange(20)).single_failure_fraction == 1.0


class TestStripeSimulationGenericPath:
    """LRC / flat XOR stripes go through the code's own repair plans."""

    def test_lrc_single_failure_reads_local_group(self):
        code = azure_lrc()
        sim = StripeSimulation(code, data_blocks=10 * code.k, location_count=400, seed=3)
        # Craft a deterministic placement: stripe 0 puts its first data block
        # on location 0, everything else (and every other stripe) elsewhere.
        sim.block_location[:] = np.arange(1, sim.block_location.size + 1).reshape(
            sim.block_location.shape
        )
        sim.block_location[0, 0] = 0
        state = sim.evaluate(np.array([0]))
        assert bool(state.decodable[0])
        assert bool(state.single_failure[0])
        # The cheapest plan for one data failure is the local group:
        # group members (k/l - 1 = 5) plus the local parity.
        assert int(state.stripe_reads[0]) == code.single_failure_cost
        assert int(state.stripe_reads[1:].sum()) == 0

    def test_lrc_multi_failure_reads_union_of_plans(self):
        """Two failures in different local groups cost two local repairs."""
        code = azure_lrc()
        sim = StripeSimulation(code, data_blocks=5 * code.k, location_count=400, seed=3)
        sim.block_location[:] = np.arange(1, sim.block_location.size + 1).reshape(
            sim.block_location.shape
        )
        # Stripe 0 loses data block 0 (group 0) and data block 6 (group 1).
        sim.block_location[0, 0] = 0
        sim.block_location[0, 6] = 0
        state = sim.evaluate(np.array([0]))
        assert bool(state.decodable[0])
        # Each failure is repaired from its own local group (6 reads each,
        # disjoint): 12 reads total, not 6.
        assert int(state.stripe_reads[0]) == 2 * code.single_failure_cost

    def test_xor_geo_loses_data_only_with_two_failures(self):
        sim = StripeSimulation(
            build_simulation("xor-geo", 600, location_count=30, seed=2).code,
            600,
            location_count=30,
            seed=2,
        )
        state = sim.evaluate(np.arange(0))
        assert int(state.missing_count.sum()) == 0
        outcome = sim.run_repair(np.arange(15))
        # Any stripe with >= 2 of its 3 blocks down is undecodable.
        assert outcome.data_loss > 0
        assert outcome.data_loss + outcome.repaired_data == outcome.initially_missing_data

    def test_vulnerability_orders_policies(self):
        """NONE >= MINIMAL >= FULL vulnerable data, for a locality code."""
        sim = build_simulation("lrc-xorbas", 5_000, location_count=50, seed=5)
        failed = np.arange(10)
        by_policy = {
            policy: sim.run_repair(failed, policy=policy).vulnerable_data
            for policy in MaintenancePolicy
        }
        assert by_policy[MaintenancePolicy.NONE] >= by_policy[MaintenancePolicy.MINIMAL]
        assert by_policy[MaintenancePolicy.MINIMAL] >= by_policy[MaintenancePolicy.FULL]

    def test_none_policy_repairs_nothing(self):
        sim = build_simulation("rs-10-4", 5_000, location_count=50, seed=5)
        outcome = sim.run_repair(np.arange(10), policy=MaintenancePolicy.NONE)
        assert outcome.repaired_data == 0
        assert outcome.rounds == 0
        assert outcome.data_loss == outcome.initially_missing_data


class TestClosedFormPath:
    """RS and replication never reach the per-pattern loop.  The closed form
    answers exactly what the loop would, so no simulated figure shows which
    path ran: only this test sees an MDS code dropped from it."""

    class Reached(Exception):
        pass

    @pytest.mark.parametrize(
        "scheme_id, per_pattern",
        [("rs-10-4", False), ("rep-3", False), ("lrc-azure", True), ("xor-geo", True)],
    )
    def test_only_non_mds_codes_evaluate_patterns(self, monkeypatch, scheme_id, per_pattern):
        def reached(sim, unavailable):
            raise self.Reached(scheme_id)

        monkeypatch.setattr(StripeSimulation, "_evaluate_patterns", reached)
        sim = build_simulation(scheme_id, 600, location_count=30, seed=2)
        failed = np.arange(10)
        if per_pattern:
            with pytest.raises(self.Reached):
                sim.evaluate(failed)
        else:
            assert int(sim.evaluate(failed).missing_count.sum()) > 0
            assert sim.run_repair(failed).initially_missing_data > 0


class TestMaintenanceBudget:
    def test_ae_max_rounds_caps_rounds(self):
        engine = SimulationEngine("ae-3-2-5", 20_000, 100, seed=7)
        failed = sample_disaster_locations(100, 0.5, 7, 4)
        unlimited = engine.run_outcome(failed)
        assert unlimited.rounds > 1
        capped = engine.run_outcome(failed, budget=MaintenanceBudget(max_rounds=1))
        assert capped.rounds == 1
        assert capped.repaired_data <= unlimited.repaired_data
        # Conservation: every initially missing data block is either repaired,
        # deferred (repairable but over budget) or counted as loss.
        assert (
            capped.repaired_data + capped.deferred_data + capped.data_loss
            == capped.initially_missing_data
        )
        assert capped.deferred_data > 0

    def test_ae_per_round_cap(self):
        engine = SimulationEngine("ae-3-2-5", 10_000, 100, seed=7)
        failed = sample_disaster_locations(100, 0.3, 7, 2)
        capped = engine.run_outcome(
            failed, budget=MaintenanceBudget(max_repairs_per_round=100, max_rounds=3)
        )
        assert all(count <= 100 for count in capped.repaired_per_round)
        assert capped.rounds <= 3

    def test_stripe_budget_defers_repairs(self):
        engine = SimulationEngine("rs-10-4", 20_000, 100, seed=7)
        failed = sample_disaster_locations(100, 0.3, 7, 2)
        unlimited = engine.run_outcome(failed, policy=MaintenancePolicy.MINIMAL)
        capped = engine.run_outcome(
            failed,
            policy=MaintenancePolicy.MINIMAL,
            budget=MaintenanceBudget(max_repairs_per_round=500),
        )
        assert capped.repaired_data <= 500
        assert capped.repaired_data + capped.deferred_data == unlimited.repaired_data
        assert capped.data_loss == unlimited.data_loss

    def test_none_policy_ignores_budget(self):
        """Under NONE nothing is 'deferred': raw exposure is reported as-is."""
        engine = SimulationEngine("ae-3-2-5", 5_000, 50, seed=3)
        plain = engine.run_outcome(0.3, policy=MaintenancePolicy.NONE)
        budgeted = engine.run_outcome(
            0.3,
            policy=MaintenancePolicy.NONE,
            budget=MaintenanceBudget(max_repairs_per_round=10),
        )
        assert budgeted.data_loss == plain.data_loss
        assert budgeted.deferred_data == 0

    def test_deferred_repairs_reach_the_metrics_row(self):
        engine = SimulationEngine("rs-10-4", 20_000, 100, seed=7)
        failed = sample_disaster_locations(100, 0.3, 7, 2)
        metrics = engine.run_disaster(
            failed, budget=MaintenanceBudget(max_repairs_per_round=500)
        )
        assert metrics.deferred_data > 0
        assert metrics.as_row()["deferred repairs (blocks)"] == metrics.deferred_data

    def test_stripe_budget_caps_redundancy_repairs_too(self):
        engine = SimulationEngine("rs-10-4", 20_000, 100, seed=7)
        failed = sample_disaster_locations(100, 0.3, 7, 2)
        # A forbidden first round repairs nothing at all (like the lattice).
        frozen = engine.run_outcome(failed, budget=MaintenanceBudget(max_rounds=0))
        assert frozen.repaired_data == 0
        assert frozen.repaired_redundancy == 0
        assert frozen.rounds == 0
        # Data repairs take priority; leftover allowance goes to parities.
        capped = engine.run_outcome(
            failed, budget=MaintenanceBudget(max_repairs_per_round=500)
        )
        assert capped.repaired_data + capped.repaired_redundancy <= 500


class TestEventLoop:
    def test_normalise_disaster_and_trace(self):
        disaster = Disaster(failed_locations=(1, 2, 3))
        events = normalise_events(disaster)
        assert events == [SimulationEvent(time=0.0, fail=(1, 2, 3), label="disaster")]
        trace = ChurnTrace.poisson(20, 5, 0.2, 0.5, seed=1)
        assert len(normalise_events(trace)) == 5
        mixed = normalise_events([disaster, trace])
        assert len(mixed) == 6

    def test_correlated_domains_feed_the_loop(self):
        disaster = disaster_for_target(
            Topology.parse("sites=4,nodes=10"), ["site:0", "site:2"]
        )
        engine = SimulationEngine("rs-10-4", 2_000, 40, seed=7)
        metrics = engine.run_disaster(disaster)
        assert metrics.disaster_fraction == pytest.approx(0.5)
        assert metrics.data_loss >= 0

    def test_session_trace_round_trips_through_loop(self):
        trace = p2p_session_trace(30, 48.0, seed=9)
        engine = SimulationEngine("rep-3", 1_000, 30, seed=7)
        run = engine.run_events(trace)
        assert run.steps
        assert 0.0 <= run.min_availability <= 1.0
        row = run.as_row()
        assert row["scheme"] == "3-way replication"

    def test_restores_bring_data_back(self):
        events = [
            SimulationEvent(time=0.0, fail=tuple(range(20))),
            SimulationEvent(time=1.0, restore=tuple(range(20))),
        ]
        engine = SimulationEngine("rs-10-4", 2_000, 40, seed=7)
        run = engine.run_events(events)
        assert run.steps[0].unavailable_data > 0
        assert run.steps[1].unavailable_data == 0

    def test_fraction_input_samples_a_disaster(self):
        engine = SimulationEngine("rs-10-4", 2_000, 40, seed=7)
        metrics = engine.run_disaster(0.5)
        assert metrics.disaster_fraction == pytest.approx(0.5)

    def test_event_loop_honours_the_engine_policy(self):
        """NONE measures raw exposure; FULL measures decodability."""
        events = [SimulationEvent(time=0.0, fail=tuple(range(10)))]
        exposed = SimulationEngine(
            "rs-10-4", 2_000, 100, seed=7, policy=MaintenancePolicy.NONE
        ).run_events(events)
        served = SimulationEngine(
            "rs-10-4", 2_000, 100, seed=7, policy=MaintenancePolicy.FULL
        ).run_events(events)
        # A 10% disaster leaves ~10% of data offline but almost all of it
        # decodable, so raw exposure must strictly exceed unserveable data.
        assert exposed.steps[0].unavailable_data > served.steps[0].unavailable_data

    def test_event_loop_rejects_out_of_range_locations(self):
        engine = SimulationEngine("rs-10-4", 1_000, 40, seed=7)
        events = [SimulationEvent(time=0.0, fail=(150,))]
        with pytest.raises(InvalidParametersError, match="150"):
            engine.run_events(events)

    def test_fail_then_restore_matches_a_live_cluster(self):
        """One event that fails and restores the same locations leaves them
        online -- fail first, then restore, the order ``ChurnTrace.replay``
        applies to a live ``StorageCluster``."""
        from repro.storage.cluster import StorageCluster
        from repro.storage.failures import ChurnEvent

        bounced = tuple(range(12))
        run = SimulationEngine("rep-2", 2_000, 40, seed=11).run_events(
            SimulationEvent(0.0, fail=bounced, restore=bounced)
        )
        assert run.steps[0].offline_locations == 0
        assert run.steps[0].availability == 1.0
        cluster = StorageCluster(40)
        ChurnTrace([ChurnEvent(0, departures=bounced, arrivals=bounced)]).replay(cluster)
        assert cluster.unavailable_locations() == []

    def test_a_healthy_state_still_counts_punctured_exposure(self):
        """Nothing offline is not "nothing vulnerable": under MINIMAL a
        punctured lattice's dropped parities leave data one loss from gone
        with every location up, as ``run_repair`` of no failure reports."""
        engine = SimulationEngine(
            "ae-3-2-5-p75", 400, 20, seed=2, policy=MaintenancePolicy.MINIMAL
        )
        healthy = engine.placement.run_repair(
            np.asarray([], dtype=np.int64), policy=MaintenancePolicy.MINIMAL
        )
        assert healthy.vulnerable_data == 46
        run = engine.run_events(
            [
                SimulationEvent(0.0),
                SimulationEvent(1.0, fail=(7,)),
                SimulationEvent(2.0, restore=(7,)),
            ]
        )
        assert [step.vulnerable_data for step in run.steps] == [46, 55, 46]
        assert [step.offline_locations for step in run.steps] == [0, 1, 0]

    @pytest.mark.parametrize("policy", list(MaintenancePolicy), ids=lambda p: p.value)
    @pytest.mark.parametrize(
        "scheme_id", ["ae-3-2-5", "ae-3-2-5-p75", "ae-2-2-5-p50", "rs-10-4"]
    )
    def test_a_healthy_step_reports_what_run_repair_reports(self, scheme_id, policy):
        """A step with nothing offline -- at the start, or after every failed
        location is restored -- is sampled like any other state."""
        engine = SimulationEngine(scheme_id, 400, 20, seed=2, policy=policy)
        healthy = engine.placement.run_repair(
            np.asarray([], dtype=np.int64), policy=policy
        )
        run = engine.run_events(
            [SimulationEvent(0.0), SimulationEvent(1.0, fail=(3, 7), restore=(3, 7))]
        )
        for step in run.steps:
            assert step.offline_locations == 0
            assert step.unavailable_data == healthy.data_loss == 0
            assert step.vulnerable_data == healthy.vulnerable_data

    def test_run_events_replays_deterministically(self):
        events = [
            SimulationEvent(0.0, fail=(1, 4, 9)),
            SimulationEvent(1.0, fail=(12,), restore=(4,)),
            SimulationEvent(2.0, restore=(1, 9, 12)),
        ]

        def replay():
            engine = SimulationEngine(
                "ae-3-2-5-p75", 400, 20, seed=5, policy=MaintenancePolicy.MINIMAL
            )
            return engine.run_events(events)

        first, second = replay(), replay()
        assert first.steps == second.steps
        assert first.as_row() == second.as_row()

    @pytest.mark.parametrize("field", ["fail", "restore"])
    def test_out_of_range_ids_are_refused_before_any_step(self, field, monkeypatch):
        engine = SimulationEngine("rs-10-4", 1_000, 40, seed=7)
        monkeypatch.setattr(
            engine.placement, "run_repair", lambda *a, **k: pytest.fail("a step ran")
        )
        events = [
            SimulationEvent(time=0.0, fail=(1, 2)),
            SimulationEvent(time=1.0, **{field: (99,)}),
        ]
        with pytest.raises(InvalidParametersError, match="99"):
            engine.run_events(events)

    def test_event_loop_rejects_string_input(self):
        engine = SimulationEngine("rs-10-4", 1_000, 40, seed=7)
        with pytest.raises(InvalidParametersError, match="ChurnTrace.load"):
            engine.run_events("trace.json")


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

    def test_each_puncturing_step_exposes_more_data(self):
        """The price of shedding parities, on one failure timeline: under
        MINIMAL maintenance the plain lattice leaves the least data
        unavailable or vulnerable at every step, then p75, then p50."""
        events = [
            SimulationEvent(0.0),
            SimulationEvent(1.0, fail=(3, 7, 11)),
            SimulationEvent(2.0, fail=(5,)),
            SimulationEvent(3.0, restore=(3, 5, 7, 11)),
        ]
        runs = [
            SimulationEngine(
                scheme_id, 400, 20, seed=2, policy=MaintenancePolicy.MINIMAL
            ).run_events(events)
            for scheme_id in ("ae-3-2-5", "ae-3-2-5-p75", "ae-3-2-5-p50")
        ]
        for plain, p75, p50 in zip(*(run.steps for run in runs)):
            assert plain.unavailable_data <= p75.unavailable_data <= p50.unavailable_data
            assert plain.vulnerable_data < p75.vulnerable_data < p50.vulnerable_data
        assert runs[0].min_availability > runs[1].min_availability > runs[2].min_availability


class TestSchemeIdUnification:
    def test_describe_scheme_covers_registry_families(self):
        for scheme_id, kind, reads in (
            ("ae-3-2-5", "ae", 2),
            ("rs-10-4", "rs", 10),
            ("lrc-azure", "lrc", 6),
            ("lrc-xorbas", "lrc", 5),
            ("rep-3", "replication", 1),
            ("xor-geo", "xor", 2),
        ):
            description = describe_scheme(scheme_id)
            assert description.kind == kind
            assert description.single_failure_reads == reads
            assert description.scheme_id == scheme_id

    def test_repair_model_for_lrc_and_xor(self):
        from repro.analysis.repair_cost import repair_model_for

        lrc = repair_model_for("lrc-azure")
        assert lrc.kind == "lrc"
        assert lrc.single_failure_cost(4096).blocks_read == 6
        xor = repair_model_for("xor-geo")
        assert xor.kind == "xor"
        assert xor.single_failure_cost(4096).blocks_read == 2


class TestSimulateDisasters:
    def test_acceptance_matrix(self):
        """Six schemes x 10-50% disasters all produce metrics (ISSUE 3)."""
        scheme_ids = ("ae-3-2-5", "rs-10-4", "rep-3", "lrc-azure", "lrc-xorbas", "xor-geo")
        fractions = (0.10, 0.30, 0.50)
        results = simulate_disasters(
            scheme_ids, data_blocks=2_000, location_count=40, seed=7, fractions=fractions
        )
        assert len(results) == len(scheme_ids) * len(fractions)
        names = {metrics.scheme for metrics in results}
        assert names == {
            "AE(3,2,5)", "RS(10,4)", "3-way replication",
            "LRC(12,2,2)", "LRC(10,2,4)", "FlatXOR(2,1)",
        }
        for metrics in results:
            assert 0 <= metrics.data_loss <= metrics.data_blocks
            assert 0 <= metrics.vulnerable_data <= metrics.data_blocks

    def test_sampling_is_seeded_per_fraction_position(self):
        """``default_rng(seed + 1000 * offset)``: the draw every Sec. V-C
        experiment, the sweep and the fixed-seed literals above share."""
        sampled = sample_disaster_locations(100, 0.3, 7, 2)
        rng = np.random.default_rng(7 + 1000 * 2)
        assert np.array_equal(sampled, np.sort(rng.choice(100, size=30, replace=False)))
        assert len(sample_disaster_locations(100, 0.3, 7)) == 30
        with pytest.raises(InvalidParametersError):
            sample_disaster_locations(100, 1.5, 7)
