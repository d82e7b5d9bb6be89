"""Import-surface test: `repro.core.__all__` is complete and importable.

Mirrors the schemes/simulation/storage surface tests and anchors the code
extensions of the dynamic-redundancy subsystem: the dynamic-upgrade and
puncturing helpers the transition engine builds on must stay exported.
"""

from __future__ import annotations

import inspect

import repro.core


class TestCoreImportSurface:
    def test_all_entries_resolve(self):
        for name in repro.core.__all__:
            assert getattr(repro.core, name) is not None

    def test_all_is_sorted_and_unique(self):
        exported = list(repro.core.__all__)
        assert exported == sorted(exported)
        assert len(exported) == len(set(exported))

    def test_star_import_matches_all(self):
        namespace: dict = {}
        exec("from repro.core import *", namespace)
        missing = set(repro.core.__all__) - set(namespace)
        assert not missing, f"__all__ entries not importable via *: {sorted(missing)}"

    def test_public_submodule_definitions_are_exported(self):
        import repro.core.dynamic
        import repro.core.puncturing

        exported = set(repro.core.__all__)
        for module in (repro.core.dynamic, repro.core.puncturing):
            for name, value in vars(module).items():
                if name.startswith("_"):
                    continue
                if not (inspect.isclass(value) or inspect.isfunction(value)):
                    continue
                if getattr(value, "__module__", None) != module.__name__:
                    continue
                assert name in exported, (
                    f"{module.__name__}.{name} missing from repro.core.__all__"
                )

    def test_transition_building_blocks_are_exported(self):
        """The symbols the transition engine composes stay on the surface."""
        for required in (
            "AlphaUpgrader",
            "DataFetcher",
            "EpochHistory",
            "ParameterEpoch",
            "PuncturedCode",
            "PuncturingPolicy",
            "UpgradePlan",
            "parity_survivors",
            "plan_alpha_upgrade",
            "puncture_rate",
        ):
            assert required in repro.core.__all__

    def test_repair_kernels_are_exported(self):
        """RPR002 anchor for the XOR kernels of repair: the pairwise pass
        ``execute_plan`` runs on (PR 18), and the gather nothing in ``src/``
        calls any more but the end-to-end tracer still times directly."""
        import repro.core.xor

        for required in ("xor_pairs", "gather_payload_matrix"):
            assert required in repro.core.__all__
            assert getattr(repro.core, required) is getattr(repro.core.xor, required)

    def test_write_kernels_are_exported(self):
        """RPR002 anchor for the XOR kernels of the write path: the strand
        scan ``entangle_batch`` runs on (PR 19) and its in-place stack form,
        which nothing in ``src/`` calls but the end-to-end tracer times.
        ``xor_rows`` went with the copy-then-XOR-in-place entangler."""
        import repro.core.xor

        for required in ("xor_chain", "xor_accumulate"):
            assert required in repro.core.__all__
            assert getattr(repro.core, required) is getattr(repro.core.xor, required)
        assert "xor_rows" not in repro.core.__all__
        assert not hasattr(repro.core.xor, "xor_rows")
