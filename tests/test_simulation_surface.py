"""Import-surface test: `repro.simulation.__all__` is complete and importable.

Mirrors the `repro.codes` surface test from the scheme-registry PR: every
name in ``__all__`` resolves, the list is sorted and unique, and every
public class/function defined in the subpackage's modules is exported.
"""

from __future__ import annotations

import importlib.util
import inspect

import repro.simulation


class TestSimulationImportSurface:
    def test_all_entries_resolve(self):
        for name in repro.simulation.__all__:
            assert getattr(repro.simulation, name) is not None

    def test_all_is_sorted_and_unique(self):
        exported = list(repro.simulation.__all__)
        assert exported == sorted(exported)
        assert len(exported) == len(set(exported))

    def test_star_import_matches_all(self):
        namespace: dict = {}
        exec("from repro.simulation import *", namespace)
        missing = set(repro.simulation.__all__) - set(namespace)
        assert not missing, f"__all__ entries not importable via *: {sorted(missing)}"

    def test_public_submodule_definitions_are_exported(self):
        import repro.simulation.churn
        import repro.simulation.engine
        import repro.simulation.experiments
        import repro.simulation.metrics
        import repro.simulation.traces
        import repro.simulation.workload

        submodules = [
            repro.simulation.churn,
            repro.simulation.engine,
            repro.simulation.experiments,
            repro.simulation.metrics,
            repro.simulation.traces,
            repro.simulation.workload,
        ]
        exported = set(repro.simulation.__all__)
        for module in submodules:
            for name, value in vars(module).items():
                if name.startswith("_"):
                    continue
                if not (inspect.isclass(value) or inspect.isfunction(value)):
                    continue
                if getattr(value, "__module__", None) != module.__name__:
                    continue
                assert name in exported, (
                    f"{module.__name__}.{name} missing from repro.simulation.__all__"
                )

    def test_engine_is_the_front_door(self):
        """The engine API the docs advertise is part of the surface."""
        for required in (
            "SimulationEngine",
            "SimulatedPlacement",
            "LatticeSimulation",
            "StripeSimulation",
            "build_simulation",
            "simulate_disasters",
            "normalise_events",
            "replay_timeline",
            "sample_states",
        ):
            assert required in repro.simulation.__all__

    def test_retired_spellings_stay_retired(self):
        """PR 23: the legacy scheme shim, the experiment-runner sampling
        wrapper, the np.where restatement of Tables I / II and the churn
        simulator's private step record are gone on purpose, and so is the
        simulated adaptive controller (``repro.simulation.adaptive``): deciding
        when to transition is a call on the live service."""
        for retired in (
            "scheme_id_for",
            "SchemeDescription",
            "sample_disaster",
            "vectorised_input_indices",
            "vectorised_output_indices",
            "ChurnSample",
            "ACTION_HOLD",
            "ACTION_STRENGTHEN",
            "ACTION_WEAKEN",
            "AdaptiveDecision",
            "AdaptiveMaintenancePolicy",
            "AdaptiveRun",
            "AdaptiveSample",
            "AdaptiveStep",
            "cold_archive_demotion",
            "hot_data_promotion",
            "run_adaptive",
        ):
            assert retired not in repro.simulation.__all__
            assert not hasattr(repro.simulation, retired)
        assert importlib.util.find_spec("repro.simulation.adaptive") is None
        assert "steer" not in inspect.signature(repro.simulation.sample_states).parameters
