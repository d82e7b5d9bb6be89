"""Tests for the redundancy-scheme protocol, the registry and the codes
import surface."""

from __future__ import annotations

import copy
import inspect
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.codes
import repro.schemes as schemes
from repro.codes.base import StripeCode
from repro.codes.entanglement import EntanglementScheme
from repro.codes.flat_xor import geo_xor_code, raid5_code
from repro.codes.lrc import azure_lrc
from repro.codes.replication import ReplicationCode
from repro.core.blocks import DataId, ParityId
from repro.core.parameters import AEParameters, StrandClass
from repro.exceptions import InvalidParametersError, RepairFailedError
from repro.schemes import stripe as stripe_module
from repro.schemes.stripe import StripeBlockId, StripeScheme
from repro.storage.backends import decode_block_id, encode_block_id

from tests.conftest import DictSource, RefusingSource

#: The identifiers the acceptance criteria require the registry to resolve.
REQUIRED_IDS = [
    "ae-1",
    "ae-2-2-5",
    "ae-3-2-5",
    "rs-10-4",
    "rs-8-2",
    "lrc-azure",
    "lrc-xorbas",
    "rep-2",
    "rep-3",
    "xor-geo",
    "xor-raid5-5",
    "xor-mirror-4",
]


class TestRegistry:
    @pytest.mark.parametrize("scheme_id", REQUIRED_IDS)
    def test_resolves_required_ids(self, scheme_id):
        scheme = schemes.get(scheme_id, block_size=256)
        assert isinstance(scheme, schemes.RedundancyScheme)
        assert scheme.scheme_id == scheme_id
        assert scheme.block_size == 256
        capabilities = scheme.capabilities()
        assert capabilities.scheme_id == scheme_id
        assert capabilities.single_failure_reads >= 1
        assert capabilities.storage_overhead > 0

    def test_every_family_has_an_example(self):
        families = schemes.available()
        assert {"ae", "rs", "lrc", "rep", "xor"} <= set(families)
        for example in families.values():
            assert schemes.get(example, block_size=128) is not None

    def test_fresh_instance_per_get(self):
        assert schemes.get("rs-10-4") is not schemes.get("rs-10-4")

    def test_unknown_family_raises(self):
        with pytest.raises(InvalidParametersError, match="unknown redundancy scheme"):
            schemes.get("zfec-10-4")

    @pytest.mark.parametrize("bad", ["rs-10", "rs-a-b", "ae-2", "lrc-foo", "rep", "xor-raid6-4"])
    def test_malformed_ids_raise(self, bad):
        with pytest.raises(InvalidParametersError):
            schemes.get(bad)

    def test_register_custom_family(self):
        def factory(scheme_id, args, block_size):
            return StripeScheme(ReplicationCode(int(args[0])), scheme_id, block_size)

        schemes.register("mirrortest", factory, "mirrortest-2")
        try:
            scheme = schemes.get("mirrortest-4")
            assert scheme.capabilities().name == "4-way replication"
        finally:
            schemes._FAMILIES.pop("mirrortest")
            schemes._EXAMPLES.pop("mirrortest")

    @pytest.mark.parametrize("scheme_id", ["ae-4-2-5", "ae-5-2-5", "ae-4-2-5-p75"])
    def test_alpha_above_three_never_opens(self, scheme_id):
        """``ae-4-2-5`` used to open, store 160 of 200 encoded blocks (the
        fourth parity overwrote the second) and corrupt degraded reads."""
        from repro import open_service

        with pytest.raises(InvalidParametersError, match="alpha=3"):
            schemes.get(scheme_id)
        with pytest.raises(InvalidParametersError, match="alpha=3"):
            open_service(scheme=scheme_id, block_size=64, topology=20)

    def test_ae_scheme_id_round_trip(self):
        params = AEParameters.triple(2, 5)
        assert params.scheme_id == "ae-3-2-5"
        resolved = schemes.get(params.scheme_id)
        assert resolved.params == params
        assert AEParameters.single().scheme_id == "ae-1"
        for setting in (params, AEParameters.single(), AEParameters(2, 3, 7)):
            assert AEParameters.from_scheme_id(setting.scheme_id) == setting
        assert AEParameters.from_scheme_id("ae-1-1-0") == AEParameters.single()
        for bad in ("ae-2", "ae-a-b-c", "rs-10-4", "ae-3-2-5-p75"):
            with pytest.raises(InvalidParametersError, match="ae-<alpha>-<s>-<p>"):
                AEParameters.from_scheme_id(bad)

    def test_capabilities_match_table4_analytics(self):
        assert schemes.get("ae-3-2-5").capabilities().costs().single_failure_cost == 2
        assert schemes.get("rs-10-4").capabilities().costs().single_failure_cost == 10
        azure = schemes.get("lrc-azure").capabilities().costs()
        assert azure.single_failure_cost == 6  # local group of LRC(12,2,2)
        assert schemes.get("rep-3").capabilities().costs().single_failure_cost == 1
        assert schemes.get("xor-geo").capabilities().costs().single_failure_cost == 2
        assert schemes.get("rs-10-4").capabilities().costs().additional_storage_percent == 40.0
        assert schemes.get("ae-3-2-5").capabilities().costs().additional_storage_percent == 300.0


class TestSchemeProtocol:
    """Scheme-level encode → lose blocks → read/repair, against a plain dict."""

    @pytest.mark.parametrize("scheme_id", REQUIRED_IDS)
    def test_roundtrip_and_single_failure_reads(self, scheme_id):
        block_size = 128
        scheme = schemes.get(scheme_id, block_size=block_size)
        payload = bytes((7 * i + 3) % 251 for i in range(block_size * 24))
        part = scheme.encode(payload)
        assert len(part.data_ids) == 24
        store = {block_id: blob for block_id, blob in part.blocks}

        victim = part.data_ids[12]
        expected = bytes(store[victim])
        del store[victim]

        # Degraded read rebuilds the block through the scheme.
        rebuilt = scheme.read_block(victim, DictSource(store))
        assert bytes(rebuilt) == expected

        # Live repair reads exactly the analytic single-failure cost.
        outcome = scheme.repair({victim}, DictSource(store))
        assert victim in outcome.recovered
        assert bytes(outcome.recovered[victim]) == expected
        assert outcome.blocks_read == scheme.capabilities().single_failure_reads
        assert not outcome.unrecovered

    def test_repair_reports_unrecoverable_blocks(self):
        scheme = schemes.get("xor-geo", block_size=64)
        part = scheme.encode(bytes(range(64)) * 2)
        store = dict(part.blocks)
        # Lose a whole stripe: data 0, data 1 and the parity.
        for block_id in list(store):
            del store[block_id]
        outcome = scheme.repair(set(part.data_ids), DictSource(store))
        assert not outcome.recovered
        assert sorted(outcome.unrecovered) == sorted(part.data_ids)
        with pytest.raises(RepairFailedError):
            scheme.read_block(part.data_ids[0], DictSource(store))

    def test_stripe_padding_completes_final_stripe(self):
        scheme = schemes.get("rs-10-4", block_size=32)
        part = scheme.encode(b"x" * 32 * 7)  # 7 data blocks: one padded stripe
        assert len(part.data_ids) == 7
        assert len(part.blocks) == 14  # 10 data slots (3 padding) + 4 parities
        assert scheme.document_blocks(part.data_ids) == [
            StripeBlockId(0, position) for position in range(14)
        ]

    def test_entanglement_document_blocks_are_metadata_only(self):
        scheme = schemes.get("ae-3-2-5", block_size=32)
        part = scheme.encode(b"y" * 32 * 4)
        assert scheme.document_blocks(part.data_ids) == part.data_ids
        assert not scheme.capabilities().erasable
        assert scheme.capabilities().streaming

    def test_is_data_block(self):
        ae = schemes.get("ae-2-2-5", block_size=32)
        part = ae.encode(b"z" * 64)
        assert all(ae.is_data_block(block_id) for block_id in part.data_ids)
        redundancy = [b for b, _ in part.blocks if b not in set(part.data_ids)]
        assert redundancy and not any(ae.is_data_block(b) for b in redundancy)

        rs = schemes.get("rs-8-2", block_size=32)
        assert rs.is_data_block(StripeBlockId(0, 7))
        assert not rs.is_data_block(StripeBlockId(0, 8))


#: Every registered stripe family, the paper's four RS settings included.
STRIPE_IDS = [
    "rs-10-4",
    "rs-8-2",
    "rs-5-5",
    "rs-4-12",
    "lrc-azure",
    "lrc-xorbas",
    "rep-2",
    "rep-3",
    "xor-geo",
    "xor-raid5-5",
    "xor-mirror-4",
]


class TestWideStripeEncode:
    """A put's stripes are encoded side by side in one ``code.encode`` call;
    the blocks must be the ones stripe-by-stripe encoding lays out."""

    @pytest.mark.parametrize("scheme_id", STRIPE_IDS)
    @given(
        first=st.integers(min_value=0, max_value=40),
        second=st.integers(min_value=1, max_value=40),
        short_by=st.integers(min_value=0, max_value=15),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=15, deadline=None)
    def test_multi_stripe_put_equals_stripe_by_stripe(
        self, scheme_id, first, second, short_by, seed
    ):
        block_size = 16
        scheme = schemes.get(scheme_id, block_size=block_size)
        code = schemes.get(scheme_id, block_size=block_size).code
        k = code.k
        rng = np.random.default_rng(seed)
        expected_blocks, expected_data_ids, expected_real = [], [], {}
        stripe = 0
        for blocks in (first, second):  # the second put continues the numbering
            payload = rng.integers(0, 256, size=blocks * block_size, dtype=np.uint8)
            payload = payload[: max(0, payload.size - short_by)].tobytes()
            part = scheme.encode(payload)

            padded = payload + bytes(-len(payload) % block_size)
            rows = [
                np.frombuffer(padded[at : at + block_size], dtype=np.uint8)
                for at in range(0, len(padded), block_size)
            ]
            expected_blocks, expected_data_ids = [], []
            for start in range(0, len(rows), k):
                data = rows[start : start + k]
                real = len(data)
                data = data + [np.zeros(block_size, dtype=np.uint8)] * (k - real)
                if real < k:
                    expected_real[stripe] = real
                for position, blob in enumerate(data + code.encode(data)):
                    expected_blocks.append((StripeBlockId(stripe, position), bytes(blob)))
                expected_data_ids.extend(StripeBlockId(stripe, p) for p in range(real))
                stripe += 1

            assert [(b, bytes(blob)) for b, blob in part.blocks] == expected_blocks
            assert part.data_ids == expected_data_ids
            assert all(blob.size == block_size for _, blob in part.blocks)
        assert scheme.stripes_written == stripe
        assert scheme._real_count == expected_real
        assert all(
            scheme.is_data_block(StripeBlockId(number, p)) == (p < expected_real.get(number, k))
            for number in range(stripe)
            for p in range(code.n)
        )


class TestBatchRepair:
    """A repair pass fetches every stripe's reads at once and rebuilds the
    stripes that share an erasure pattern side by side; none of that may
    show: one call over many stripes equals one call per stripe."""

    @pytest.mark.parametrize("scheme_id", STRIPE_IDS)
    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_whole_set_equals_the_stripes_one_by_one(self, scheme_id, data):
        block_size = 16
        scheme = schemes.get(scheme_id, block_size=block_size)
        code = scheme.code
        stripes = data.draw(st.integers(min_value=1, max_value=8), label="stripes")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1), label="seed"))
        size = (stripes * code.k - data.draw(st.integers(0, code.k - 1))) * block_size
        part = scheme.encode(rng.integers(0, 256, size=size, dtype=np.uint8).tobytes())
        assert scheme.stripes_written == stripes
        # Few patterns over many stripes, so groups wider than one form.
        pattern = st.sets(st.integers(0, code.n - 1), min_size=1, max_size=code.m + 1)
        patterns = data.draw(st.lists(pattern, min_size=1, max_size=3), label="patterns")
        lost = {
            stripe: data.draw(st.sampled_from(patterns), label=f"lost {stripe}")
            for stripe in range(stripes)
            if data.draw(st.booleans(), label=f"damaged {stripe}")
        }
        refused_at = data.draw(st.sets(st.integers(0, code.n - 1), max_size=2), label="refused")
        refused = {
            StripeBlockId(stripe, position)
            for stripe in range(stripes)
            for position in sorted(refused_at - lost.get(stripe, set()))
            if data.draw(st.booleans(), label=f"refuse {stripe},{position}")
        }
        missing = {StripeBlockId(s, p) for s, positions in lost.items() for p in positions}
        survivors = {b: blob for b, blob in part.blocks if b not in missing}

        whole_source = RefusingSource(survivors, refused)
        whole = scheme.repair(missing, whole_source)
        requests = []
        recovered = {}
        unrecovered = []
        blocks_read = 0
        for stripe in sorted(lost):
            source = RefusingSource(survivors, refused)
            one = scheme.repair({b for b in missing if b.stripe == stripe}, source)
            requests.extend(source.requests)
            recovered.update(one.recovered)
            unrecovered.extend(one.unrecovered)
            blocks_read += one.blocks_read
        assert list(whole.recovered) == list(recovered)
        assert all(bytes(whole.recovered[b]) == bytes(recovered[b]) for b in recovered)
        assert whole.unrecovered == unrecovered
        assert whole.blocks_read == blocks_read
        assert whole.rounds == int(bool(recovered))
        assert sorted(whole_source.requests) == sorted(requests)
        stored = dict(part.blocks)
        assert all(bytes(blob) == bytes(stored[b]) for b, blob in whole.recovered.items())

    def test_a_pass_covers_the_benchmark_disaster(self):
        # ``archive_rs`` loses 98 blocks in 49 stripes to one site disaster.
        assert stripe_module.STRIPES_PER_PASS >= 49

    def test_passes_are_bounded(self, monkeypatch):
        monkeypatch.setattr(stripe_module, "STRIPES_PER_PASS", 3)
        scheme = schemes.get("rs-4-2", block_size=8)
        part = scheme.encode(bytes(range(256)) * 3)  # 24 stripes
        stored = dict(part.blocks)
        missing = {StripeBlockId(stripe, 1) for stripe in range(scheme.stripes_written)}
        source = RefusingSource({b: v for b, v in stored.items() if b not in missing})
        outcome = scheme.repair(missing, source)
        assert sorted(outcome.recovered) == sorted(missing)
        assert all(bytes(outcome.recovered[b]) == bytes(stored[b]) for b in missing)
        # One fetch of three stripes' four-block plans per pass.
        assert [len(call) for call in source.calls] == [3 * 4] * 8


class TestOutOfRangeStripeIds:
    """A stripe id outside the scheme's stripes or positions is not its own:
    ``repair`` lists it unrecovered without reading its stripe."""

    @pytest.fixture
    def rs42(self):
        scheme = schemes.get("rs-4-2", block_size=16)
        part = scheme.encode(bytes(range(200)))  # 4 stripes
        return scheme, dict(part.blocks)

    @pytest.mark.parametrize("block_id", [(0, 6), (0, -1), (3, 99), (4, 0), (-1, 0)])
    def test_not_owned(self, rs42, block_id):
        scheme, _ = rs42
        assert scheme.stripes_written == 4
        assert not scheme.owns(StripeBlockId(*block_id))
        assert scheme.owns(StripeBlockId(3, 5))

    def test_repair_lists_it_unrecovered_without_reading(self, rs42):
        scheme, stored = rs42
        source = RefusingSource(stored)
        outcome = scheme.repair({StripeBlockId(0, 6)}, source)
        assert outcome.unrecovered == [StripeBlockId(0, 6)]
        assert not outcome.recovered and outcome.blocks_read == 0
        assert source.requests == []

    def test_read_block_raises_repair_failed(self, rs42):
        scheme, stored = rs42
        with pytest.raises(RepairFailedError):
            scheme.read_block(StripeBlockId(0, 6), DictSource(stored))

    def test_its_stripe_mates_are_still_repaired(self, rs42):
        scheme, stored = rs42
        victim = StripeBlockId(1, 2)
        survivors = {b: v for b, v in stored.items() if b != victim}
        missing = {victim, StripeBlockId(1, 7), StripeBlockId(0, 3)}
        outcome = scheme.repair(missing, DictSource(survivors))
        assert outcome.unrecovered == [StripeBlockId(1, 7)]
        assert sorted(outcome.recovered) == [StripeBlockId(0, 3), victim]
        assert bytes(outcome.recovered[victim]) == bytes(stored[victim])


class TestRepairReadPlans:
    """StripeCode.repair_read_positions drives the measured repair costs."""

    def test_rs_reads_any_k(self):
        code = schemes.get("rs-10-4").code
        plan = code.repair_read_positions(3, [p for p in range(14) if p != 3])
        assert plan is not None and len(plan) == 10

    def test_replication_reads_one_copy(self):
        code = ReplicationCode(3)
        assert len(code.repair_read_positions(0, [1, 2])) == 1

    def test_lrc_prefers_local_group(self):
        code = azure_lrc()  # LRC(12,2,2), groups of 6
        plan = code.repair_read_positions(2, [p for p in range(16) if p != 2])
        assert sorted(plan) == [0, 1, 3, 4, 5, 12]  # group 0 members + local parity
        # Local parity down: falls back to a decodable global plan.
        degraded = code.repair_read_positions(
            2, [p for p in range(16) if p not in (2, 12)]
        )
        assert degraded is not None and code.can_decode(degraded)

    def test_flat_xor_reads_smallest_equation(self):
        code = geo_xor_code()
        assert sorted(code.repair_read_positions(0, [1, 2])) == [1, 2]
        code5 = raid5_code(5)
        assert len(code5.repair_read_positions(1, [0, 2, 3, 4, 5])) == 5


small = st.integers(min_value=0, max_value=6)
any_block_id = st.one_of(
    st.builds(DataId, small),
    st.builds(ParityId, small, st.sampled_from(StrandClass)),
    st.builds(StripeBlockId, small, small),
)


class TestBlockIdContract:
    """The three id kinds share every dict and set of the store, so they
    must behave as one family of immutable, C-hashed keys (the lattice-only
    half of the contract lives in ``tests/test_blocks.py``)."""

    @given(any_block_id, any_block_id)
    def test_kinds_never_compare_equal(self, left, right):
        if type(left) is not type(right):
            assert left != right
            assert len({left, right}) == 2
            assert {left: "left"}.get(right) is None
        else:
            assert (left == right) == (tuple(left) == tuple(right))

    @given(small, small)
    def test_stripe_id_hashes_like_its_field_tuple(self, stripe, position):
        # As for the lattice ids: the dataclass hash value, kept so that set
        # and dict iteration orders (and the goldens they feed) do not move.
        assert hash(StripeBlockId(stripe, position)) == hash((stripe, position))

    def test_stripe_id_surface(self):
        block_id = StripeBlockId(3, 1)
        assert block_id.label() == repr(block_id) == "s[3,1]"
        assert (block_id.stripe, block_id.position) == (3, 1)
        # ``index`` is the flat relocation index, not ``tuple.index``.
        assert block_id.index == 3 * 1024 + 1
        assert StripeBlockId(3, 1) < StripeBlockId(3, 2) < StripeBlockId(4, 0)
        with pytest.raises(AttributeError):
            block_id.stripe = 4
        with pytest.raises(AttributeError):
            block_id.index = 4

    @given(any_block_id)
    def test_codec_pickle_and_copy_keep_the_type(self, block_id):
        for clone in (
            decode_block_id(encode_block_id(block_id)),
            pickle.loads(pickle.dumps(block_id)),
            copy.copy(block_id),
            copy.deepcopy(block_id),
        ):
            assert clone == block_id
            assert type(clone) is type(block_id)

    def test_codec_rejects_a_bare_tuple(self):
        # A bare tuple equals the id with the same fields; it is still not one.
        assert DataId(3) == (3,)
        with pytest.raises(InvalidParametersError):
            encode_block_id((3,))


class TestImportSurface:
    """`from repro.codes import *` stays in sync with the registry."""

    def test_all_entries_resolve(self):
        for name in repro.codes.__all__:
            assert getattr(repro.codes, name) is not None

    def test_all_is_sorted_and_unique(self):
        exported = list(repro.codes.__all__)
        assert exported == sorted(exported)
        assert len(exported) == len(set(exported))

    def test_public_submodule_definitions_are_exported(self):
        import repro.codes.base
        import repro.codes.entanglement
        import repro.codes.flat_xor
        import repro.codes.gf256
        import repro.codes.lrc
        import repro.codes.reed_solomon
        import repro.codes.replication

        submodules = [
            repro.codes.base,
            repro.codes.entanglement,
            repro.codes.flat_xor,
            repro.codes.gf256,
            repro.codes.lrc,
            repro.codes.reed_solomon,
            repro.codes.replication,
        ]
        exported = set(repro.codes.__all__)
        for module in submodules:
            for name, value in vars(module).items():
                if name.startswith("_"):
                    continue
                if not (inspect.isclass(value) or inspect.isfunction(value)):
                    continue
                if getattr(value, "__module__", None) != module.__name__:
                    continue
                assert name in exported, f"{module.__name__}.{name} missing from repro.codes.__all__"

    def test_gf256_kernel_exports(self):
        """RPR002 anchor for the table-driven GF(2^8) kernel (PR 17): the
        packed matrix product is public, the log/exp-era helper is gone."""
        for required in ("PackedMatrix", "gf_pack_matrix", "gf_matmul_bytes",
                         "gf_dot_bytes", "gf_mul_bytes"):
            assert required in repro.codes.__all__
            assert getattr(repro.codes, required) is getattr(repro.codes.gf256, required)
        assert "gf_mul_add_bytes" not in repro.codes.__all__
        assert not hasattr(repro.codes, "gf_mul_add_bytes")

    def test_registry_families_map_to_exported_classes(self):
        """Every family the registry serves resolves to a class exported
        from repro.codes."""
        exported = set(repro.codes.__all__)
        for required in ("EntanglementScheme", "ReedSolomonCode",
                         "LocalReconstructionCode", "ReplicationCode",
                         "FlatXorCode", "StripeScheme", "StripeBlockId",
                         "get_scheme", "register_scheme", "available_schemes",
                         "DEFAULT_SCHEME", "RedundancyScheme"):
            assert required in exported
        for family, example in schemes.available().items():
            scheme = schemes.get(example, block_size=64)
            if isinstance(scheme, StripeScheme):
                assert type(scheme.code).__name__ in exported
            else:
                assert type(scheme).__name__ in exported

    def test_star_import_namespace(self):
        namespace = {}
        exec("from repro.codes import *", namespace)
        assert "get_scheme" in namespace
        assert "EntanglementScheme" in namespace
        assert "StripeCode" in namespace
        assert issubclass(namespace["ReedSolomonCode"], StripeCode)
        assert isinstance(namespace["get_scheme"]("ae-1"), EntanglementScheme)
