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
            "EpochHistory",
            "ParameterEpoch",
            "PuncturedCode",
            "PuncturingPolicy",
            "parity_survivors",
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


class TestOneAEStack:
    """The storage and system layers reach entanglement through
    ``EntanglementScheme`` only: no module there builds its own entangler
    next to the service (the entangled mirror's chain was the last one), and
    nothing above ``core/`` reads through the per-block ``Decoder`` -- it is
    the tests' reference; the store's one read path is ``repair``."""

    @staticmethod
    def core_imports(package: str):
        """``(file, module, name)`` for every ``repro.core`` import under
        ``src/repro/<package>/``, read off the AST."""
        import ast
        from pathlib import Path

        root = Path(repro.core.__file__).resolve().parent.parent / package
        for path in sorted(root.rglob("*.py")):
            where = f"{package}/{path.relative_to(root).as_posix()}"
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.ImportFrom) and node.module:
                    if node.module.startswith("repro.core"):
                        for alias in node.names:
                            yield where, node.module, alias.name
                elif isinstance(node, ast.Import):
                    for alias in node.names:
                        if alias.name.startswith("repro.core"):
                            yield where, alias.name, "*"

    def test_no_private_entangler_or_decoder(self):
        found = [
            entry
            for package in ("codes", "schemes", "storage", "system")
            for entry in self.core_imports(package)
        ]
        assert len(found) > 30  # the walk really saw the packages
        entanglers = [
            (where, name)
            for where, module, name in found
            if where.startswith(("system/", "storage/"))
            and (
                (module == "repro.core.encoder" and name != "DEFAULT_BLOCK_SIZE")
                or (module == "repro.core" and "ntangle" in name)
            )
        ]
        assert entanglers == []
        decoders = sorted(
            {
                where
                for where, module, name in found
                if module == "repro.core.decoder"
                or (module == "repro.core" and "Decoder" in name)
            }
        )
        assert decoders == []

    def test_no_private_xor_chain_in_system(self):
        """An XOR kernel under ``system/`` is a chain coded next to the
        service: the entangled mirror is RAID-AE over AE(1), not its own
        encoder."""
        kernels = {"xor_payloads", "zero_payload", "xor_pairs", "xor_chain", "xor_accumulate"}
        found = list(self.core_imports("system"))
        assert len(found) > 5  # the walk really saw the package
        assert [
            (where, name)
            for where, module, name in found
            if module in ("repro.core", "repro.core.xor") and name in kernels
        ] == []

    def test_read_block_is_written_once(self):
        from pathlib import Path

        root = Path(repro.core.__file__).resolve().parent.parent
        definitions = [
            path.relative_to(root).as_posix()
            for path in sorted(root.rglob("*.py"))
            if "def read_block" in path.read_text(encoding="utf-8")
        ]
        assert definitions == ["schemes/base.py"]

    def test_storage_config_names_where_blocks_live_once(self):
        import dataclasses

        from repro.system.service import StorageConfig

        names = [field.name for field in dataclasses.fields(StorageConfig)]
        assert len(names) == 12
        assert "location_count" not in names and "topology" in names
