"""Tests for block identities, payload blocks and file splitting."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.core.batch_repair import block_sort_key
from repro.core.blocks import (
    Block,
    DataId,
    EncodedBlock,
    ParityId,
    block_ids,
    is_data,
    is_parity,
    join_blocks,
    split_into_blocks,
)
from repro.core.parameters import StrandClass
from repro.exceptions import BlockSizeMismatchError

lattice_ids = st.one_of(
    st.builds(DataId, st.integers(min_value=1, max_value=12)),
    st.builds(ParityId, st.integers(min_value=1, max_value=12), st.sampled_from(StrandClass)),
)


class TestIdentities:
    def test_data_and_parity_ids_are_distinct(self):
        assert DataId(3) != ParityId(3, StrandClass.HORIZONTAL)
        assert is_data(DataId(3))
        assert is_parity(ParityId(3, StrandClass.HORIZONTAL))
        assert not is_data(ParityId(3, StrandClass.HORIZONTAL))

    def test_ids_are_hashable_and_ordered(self):
        ids = {DataId(1), DataId(2), DataId(1)}
        assert len(ids) == 2
        assert DataId(1) < DataId(2)
        assert ParityId(1, StrandClass.HORIZONTAL) != ParityId(1, StrandClass.RIGHT_HANDED)

    def test_labels(self):
        assert DataId(26).label() == "d26"
        assert ParityId(26, StrandClass.RIGHT_HANDED).label() == "p[26,rh]"
        # The placement hashes are keyed by ``repr``: it must stay the label.
        assert repr(DataId(26)) == "d26"
        assert repr(ParityId(26, StrandClass.RIGHT_HANDED)) == "p[26,rh]"

    @given(lattice_ids)
    def test_hash_is_the_hash_of_the_field_tuple(self, block_id):
        # The frozen dataclasses the ids used to be hashed their field tuple.
        # Keeping that value is what keeps every set / dict iteration order
        # -- and with it the repair, placement and simulation goldens -- fixed.
        fields = tuple(getattr(block_id, name) for name in block_id._fields)
        assert hash(block_id) == hash(fields)

    def test_ids_are_immutable(self):
        for block_id in (DataId(3), ParityId(3, StrandClass.HORIZONTAL)):
            with pytest.raises(AttributeError):
                block_id.index = 4
            with pytest.raises(AttributeError):
                block_id.colour = "red"
            with pytest.raises(TypeError):
                block_id[0] = 4

    def test_index_is_the_field_not_the_tuple_method(self):
        # ``index`` shadows ``tuple.index`` on purpose.
        assert DataId(3).index == 3
        assert ParityId(7, StrandClass.LEFT_HANDED).index == 7
        assert ParityId(7, StrandClass.LEFT_HANDED).strand_class is StrandClass.LEFT_HANDED

    @given(st.lists(lattice_ids, max_size=30))
    def test_native_sort_is_lattice_order(self, ids):
        assert sorted(ids) == sorted(ids, key=block_sort_key)


class TestBlock:
    def test_block_normalises_payload(self):
        block = Block(DataId(1), b"\x01\x02")
        assert block.size == 2
        assert block.to_bytes() == b"\x01\x02"

    def test_checksum_and_digest_are_stable(self):
        one = Block(DataId(1), b"same content")
        two = Block(DataId(2), b"same content")
        assert one.checksum() == two.checksum()
        assert one.digest() == two.digest()
        assert Block(DataId(3), b"other").digest() != one.digest()

    def test_encoded_block_accessors(self):
        encoded = EncodedBlock(
            data=Block(DataId(5), b"x"),
            parities=[Block(ParityId(5, StrandClass.HORIZONTAL), b"y")],
        )
        assert encoded.data_id == DataId(5)
        assert encoded.parity_ids == [ParityId(5, StrandClass.HORIZONTAL)]
        assert len(encoded.all_blocks()) == 2
        assert block_ids(encoded.all_blocks())[0] == DataId(5)


class TestSplitting:
    @given(st.binary(min_size=0, max_size=2000), st.integers(min_value=1, max_value=128))
    def test_split_join_roundtrip(self, data, block_size):
        chunks = split_into_blocks(data, block_size)
        assert join_blocks(chunks, len(data)) == data
        assert all(chunk.size == block_size for chunk in chunks)

    def test_split_block_count(self):
        assert len(split_into_blocks(b"", 16)) == 0
        assert len(split_into_blocks(b"a" * 16, 16)) == 1
        assert len(split_into_blocks(b"a" * 17, 16)) == 2

    def test_invalid_block_size(self):
        with pytest.raises(BlockSizeMismatchError):
            split_into_blocks(b"abc", 0)

    def test_join_empty(self):
        assert join_blocks([]) == b""
