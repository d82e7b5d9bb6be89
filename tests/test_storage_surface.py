"""Import-surface test: `repro.storage.__all__` is complete and importable.

Mirrors `tests/test_simulation_surface.py`: every name in ``__all__``
resolves, the list is sorted and unique, and every public class/function
defined in the subpackage's modules is reachable -- either exported directly
or through an exported registry submodule (``backends``, ``placement``,
``topology`` keep their generic ``get``/``register`` entry points namespaced).
"""

from __future__ import annotations

import inspect

import repro.storage


class TestStorageImportSurface:
    def test_all_entries_resolve(self):
        for name in repro.storage.__all__:
            assert getattr(repro.storage, name) is not None

    def test_all_is_sorted_and_unique(self):
        exported = list(repro.storage.__all__)
        assert exported == sorted(exported)
        assert len(exported) == len(set(exported))

    def test_star_import_matches_all(self):
        namespace: dict = {}
        exec("from repro.storage import *", namespace)
        missing = set(repro.storage.__all__) - set(namespace)
        assert not missing, f"__all__ entries not importable via *: {sorted(missing)}"

    def test_public_submodule_definitions_are_exported(self):
        import repro.storage.backends
        import repro.storage.block_store
        import repro.storage.cluster
        import repro.storage.failures
        import repro.storage.maintenance
        import repro.storage.placement
        import repro.storage.topology
        import repro.storage.wal

        submodules = [
            repro.storage.backends,
            repro.storage.block_store,
            repro.storage.cluster,
            repro.storage.failures,
            repro.storage.maintenance,
            repro.storage.placement,
            repro.storage.topology,
            repro.storage.wal,
        ]
        #: Registry submodules exported as modules: their registry entry
        #: points (get/register/available and policy/backend factories) stay
        #: namespaced (repro.storage.placement.get) to avoid clobbering the
        #: scheme registry's `get` at package level.
        namespaced = {"backends", "placement", "topology"}
        exported = set(repro.storage.__all__)
        for module in submodules:
            short_name = module.__name__.rsplit(".", 1)[1]
            for name, value in vars(module).items():
                if name.startswith("_"):
                    continue
                if not (inspect.isclass(value) or inspect.isfunction(value)):
                    continue
                if getattr(value, "__module__", None) != module.__name__:
                    continue
                if name in exported:
                    continue
                assert short_name in namespaced and short_name in exported, (
                    f"{module.__name__}.{name} missing from repro.storage.__all__"
                )
                # Reachable through the exported submodule.
                assert getattr(getattr(repro.storage, short_name), name) is value

    def test_topology_surface_is_the_front_door(self):
        """The topology/placement API the docs advertise is exported."""
        for required in (
            "Topology",
            "TopologyBuilder",
            "TopologyNode",
            "SpreadDomainsPlacement",
            "WeightedPlacement",
            "PlacementPolicy",
            "placement",
            "topology",
            "disaster_for_target",
            "domain_balance",
            "placement_balance",
        ):
            assert required in repro.storage.__all__

    def test_placement_registry_covers_the_catalogue(self):
        from repro.storage import placement

        assert set(placement.available()) >= {
            "random",
            "round-robin",
            "strand-aware",
            "spread-domains",
            "weighted",
        }

    def test_backend_registry_covers_the_catalogue(self):
        """RPR002 anchor: every registered backend id appears literally here."""
        from repro.storage import backends

        assert set(backends.available()) >= {
            "memory",
            "disk",
            "segment",
        }


class TestShardingSurface:
    """RPR002 anchor for the sharded-namespace exports (PR 9)."""

    def test_sharding_module_all_resolves(self):
        import repro.system.sharding as sharding

        for name in sharding.__all__:
            assert getattr(sharding, name) is not None
        assert sorted(sharding.__all__) == list(sharding.__all__)

    def test_system_package_exports_the_federation_api(self):
        import repro.system

        for required in (
            "FederationRepairReport",
            "FederationStatus",
            "RebalanceReport",
            "ShardRing",
            "ShardedStorageService",
        ):
            assert required in repro.system.__all__
            assert getattr(repro.system, required) is not None

    def test_top_level_exports_the_federation_front_door(self):
        import repro

        for required in ("ShardRing", "ShardedStorageService"):
            assert required in repro.__all__
            assert getattr(repro, required) is not None


class TestDocumentServiceSurface:
    """RPR002 anchor for the one-surface exports (PR 13)."""

    def test_system_package_exports_the_surface_and_its_opener(self):
        import repro.system
        import repro.system.opening as opening
        import repro.system.protocol as protocol

        assert protocol.__all__ == ["DocumentService"]
        assert opening.__all__ == ["open_service"]
        for required in ("DocumentService", "open_service"):
            assert required in repro.system.__all__
        assert repro.system.DocumentService is protocol.DocumentService
        assert repro.system.open_service is opening.open_service

    def test_top_level_exports_the_surface_and_its_opener(self):
        import repro

        for required in ("DocumentService", "open_service"):
            assert required in repro.__all__
            assert getattr(repro, required) is getattr(repro.system, required)
