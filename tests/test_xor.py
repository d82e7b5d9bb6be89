"""Tests for the XOR payload kernels."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.blocks import DataId
from repro.core.xor import (
    as_payload,
    gather_payload_matrix,
    payload_to_bytes,
    payloads_equal,
    xor_chain,
    xor_many,
    xor_pairs,
    xor_payloads,
    zero_payload,
)
from repro.exceptions import BlockSizeMismatchError
from repro.storage.backends import SegmentLogBackend

binary = st.binary(min_size=1, max_size=256)


@st.composite
def pair_columns(draw):
    """Two columns of a repair plan: 0-40 rows of one block size, ``None``
    (the virtual zero parity) on either or both sides."""
    size = draw(st.sampled_from([1, 7, 4096]))
    rows = draw(st.integers(min_value=0, max_value=40))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))

    def column():
        return [
            None
            if draw(st.integers(min_value=0, max_value=4)) == 0
            else rng.integers(0, 256, size=size, dtype=np.uint8)
            for _ in range(rows)
        ]

    return size, column(), column()


class TestConversions:
    def test_as_payload_from_bytes(self):
        payload = as_payload(b"\x01\x02\x03")
        assert payload.dtype == np.uint8
        assert payload.tolist() == [1, 2, 3]

    def test_as_payload_pads_to_block_size(self):
        payload = as_payload(b"\x01\x02", block_size=5)
        assert payload.tolist() == [1, 2, 0, 0, 0]

    def test_as_payload_rejects_oversized(self):
        with pytest.raises(BlockSizeMismatchError):
            as_payload(b"\x01\x02\x03", block_size=2)

    def test_payload_to_bytes_strips_padding(self):
        payload = as_payload(b"abc", block_size=8)
        assert payload_to_bytes(payload, 3) == b"abc"
        assert payload_to_bytes(payload) == b"abc" + b"\x00" * 5

    def test_zero_payload(self):
        assert zero_payload(4).tolist() == [0, 0, 0, 0]


class TestXorAlgebra:
    @given(binary)
    def test_xor_with_zero_is_identity(self, data):
        payload = as_payload(data)
        assert payloads_equal(xor_payloads(payload, zero_payload(payload.size)), payload)

    @given(binary)
    def test_xor_self_is_zero(self, data):
        payload = as_payload(data)
        assert payloads_equal(xor_payloads(payload, payload), zero_payload(payload.size))

    @given(binary, binary)
    def test_xor_is_commutative(self, left, right):
        size = max(len(left), len(right))
        a = as_payload(left, size)
        b = as_payload(right, size)
        assert payloads_equal(xor_payloads(a, b), xor_payloads(b, a))

    @given(binary, binary, binary)
    def test_xor_is_associative(self, one, two, three):
        size = max(len(one), len(two), len(three))
        a, b, c = (as_payload(value, size) for value in (one, two, three))
        assert payloads_equal(
            xor_payloads(xor_payloads(a, b), c), xor_payloads(a, xor_payloads(b, c))
        )

    @given(binary, binary)
    def test_xor_roundtrip_recovers_data(self, data, key):
        """The entanglement primitive: parity XOR old parity recovers the data."""
        size = max(len(data), len(key))
        d = as_payload(data, size)
        p_old = as_payload(key, size)
        p_new = xor_payloads(d, p_old)
        assert payloads_equal(xor_payloads(p_new, p_old), d)

    def test_size_mismatch_raises(self):
        with pytest.raises(BlockSizeMismatchError):
            xor_payloads(b"\x00\x01", b"\x00")

    def test_xor_many(self):
        parts = [b"\x01\x01", b"\x02\x02", b"\x04\x04"]
        assert xor_many(parts).tolist() == [7, 7]
        with pytest.raises(BlockSizeMismatchError):
            xor_many([])
        with pytest.raises(BlockSizeMismatchError):
            xor_many([b"\x01", b"\x02\x03"])


class TestXorPairs:
    """The repair kernel: one result matrix, one XOR per pair, no gather."""

    @given(pair_columns())
    def test_equals_xor_payloads_pair_by_pair(self, columns):
        size, firsts, seconds = columns
        result = xor_pairs(firsts, seconds, size)
        assert result.shape == (len(firsts), size)
        assert result.dtype == np.uint8
        zero = zero_payload(size)
        for row, first, second in zip(result, firsts, seconds):
            expected = xor_payloads(
                zero if first is None else first, zero if second is None else second
            )
            assert payloads_equal(row, expected)

    @given(pair_columns())
    def test_rows_are_fresh_and_writable(self, columns):
        size, firsts, seconds = columns
        inputs = [payload for payload in firsts + seconds if payload is not None]
        before = [payload.copy() for payload in inputs]
        result = xor_pairs(firsts, seconds, size)
        assert result.flags.writeable
        # No row is an input (not even the copy of a lone side), so writing
        # the result leaves every input as it was.
        assert not any(np.shares_memory(result, payload) for payload in inputs)
        result[...] = 0xFF
        for payload, original in zip(inputs, before):
            assert payloads_equal(payload, original)

    def test_rows_do_not_alias_each_other(self):
        shared = as_payload(b"\x0f" * 8)
        result = xor_pairs([shared, shared, None], [None, shared, None], 8)
        result[0, :] = 1
        assert result[1].tolist() == [0] * 8
        assert result[2].tolist() == [0] * 8
        assert shared.tolist() == [0x0F] * 8

    def test_no_pairs_gives_an_empty_matrix(self):
        result = xor_pairs([], [], 16)
        assert result.shape == (0, 16)
        assert result.dtype == np.uint8

    @pytest.mark.parametrize("size", [1, 3, 5])
    @pytest.mark.parametrize("paired", [True, False])
    def test_short_or_long_input_raises(self, size, paired):
        # A one-byte input would broadcast if numpy were left to judge.
        wrong = zero_payload(size)
        other = zero_payload(4) if paired else None
        for firsts, seconds in (([wrong], [other]), ([other], [wrong])):
            with pytest.raises(BlockSizeMismatchError):
                xor_pairs(firsts, seconds, 4)

    def test_invalid_block_size_and_ragged_columns_raise(self):
        for block_size in (0, -4):
            with pytest.raises(BlockSizeMismatchError):
                xor_pairs([], [], block_size)
        with pytest.raises(BlockSizeMismatchError):
            xor_pairs([zero_payload(4)], [], 4)

    def test_accepts_byte_strings(self):
        assert xor_pairs([b"\x01\x02"], [bytearray(b"\x03\x03")], 2).tolist() == [[2, 1]]

    def test_read_only_mmap_inputs_are_left_untouched(self, tmp_path):
        backend = SegmentLogBackend(str(tmp_path))
        originals = {
            DataId(index): np.full(64, index, dtype=np.uint8) for index in (1, 2, 3)
        }
        backend.put_many(originals.items())
        backend.flush()
        views = [backend.get(block_id) for block_id in originals]
        assert not any(view.flags.writeable for view in views)
        result = xor_pairs([views[0], views[1], None], [views[1], views[2], views[2]], 64)
        assert result[:, 0].tolist() == [1 ^ 2, 2 ^ 3, 3]
        assert result.flags.writeable
        result[...] = 0
        for view, original in zip(views, originals.values()):
            assert payloads_equal(view, original)
        backend.close()


@st.composite
def strand_chains(draw):
    """A data matrix, the rows of one strand chain across it (ascending, at
    least one) and the strand head, ``None`` at a strand start."""
    size = draw(st.sampled_from([1, 7, 4096]))
    count = draw(st.integers(min_value=1, max_value=24))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    rows = sorted(draw(st.sets(st.integers(min_value=0, max_value=count - 1), min_size=1)))
    data = rng.integers(0, 256, size=(count, size), dtype=np.uint8)
    head = rng.integers(0, 256, size=size, dtype=np.uint8) if draw(st.booleans()) else None
    return data, rows, head


class TestXorChain:
    """The entangler kernel: one strand's parity chain across a batch, every
    parity written beside its inputs."""

    @given(strand_chains())
    def test_equals_the_running_xor_and_reads_only(self, chain):
        data, rows, head = chain
        size = data.shape[1]
        before = data.copy()
        data.flags.writeable = False
        if head is not None:
            head_before = head.copy()
            head.flags.writeable = False
        parities = np.full_like(before, 0xAA)
        outputs = list(parities)
        last = xor_chain(list(data), outputs, rows, head)
        running = zero_payload(size) if head is None else head
        for row in rows:
            running = xor_payloads(running, before[row])
            assert payloads_equal(parities[row], running)
        # The new strand head is the last output row itself, not a copy.
        assert last is outputs[rows[-1]]
        # Rows off the chain are not touched; inputs are only ever read.
        for row in set(range(len(before))) - set(rows):
            assert parities[row].tolist() == [0xAA] * size
        assert np.array_equal(data, before)
        assert head is None or np.array_equal(head, head_before)

    @pytest.mark.parametrize("wrong", [1, 3, 5])
    def test_a_head_of_the_wrong_size_raises(self, wrong):
        # A one-byte head would broadcast if numpy were left to judge.
        data = np.zeros((2, 4), dtype=np.uint8)
        parities = np.zeros_like(data)
        with pytest.raises(BlockSizeMismatchError):
            xor_chain(list(data), list(parities), [0, 1], zero_payload(wrong))


class TestGatherPayloadMatrix:
    """Kept for callers that want the stacked matrix (the end-to-end tracer
    times it directly); repair itself runs on :func:`xor_pairs`."""

    def test_stacks_into_a_fresh_matrix_with_zero_rows_for_none(self):
        one = as_payload(b"\x01\x02")
        matrix = gather_payload_matrix([one, None, b"\x05\x06"], 2)
        assert matrix.tolist() == [[1, 2], [0, 0], [5, 6]]
        assert matrix.flags.writeable and not np.shares_memory(matrix, one)
        assert gather_payload_matrix([], 2).shape == (0, 2)

    def test_size_mismatch_raises(self):
        with pytest.raises(BlockSizeMismatchError):
            gather_payload_matrix([b"\x01"], 2)
        with pytest.raises(BlockSizeMismatchError):
            gather_payload_matrix([], 0)
