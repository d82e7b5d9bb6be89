"""Tests for the batched XOR kernels and the vectorised batch encoder.

The contract under test is the one the batched ingest pipeline rests on:
``BatchEntangler`` must produce parities bit-identical to the sequential
``Entangler`` (same block ids, same payloads, same strand-head state) for any
AE(alpha, s, p) setting and any batch split, because the two encoders are
interchangeable front-ends of the same lattice (paper, Sec. III-B).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.blocks import DataId, ParityId
from repro.core.encoder import _PLAN_MEMO_ROWS, BatchEntangler, Entangler
from repro.core.parameters import AEParameters, StrandClass
from repro.core.position import strand_label, strand_labels
from repro.core.strands import StrandId
from repro.core.xor import (
    as_payload_matrix,
    xor_accumulate,
    xor_into,
)
from repro.exceptions import BlockSizeMismatchError

BLOCK = 64


def random_matrix(rows: int, cols: int = BLOCK, seed: int = 7) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=(rows, cols), dtype=np.uint8)


class TestPayloadMatrix:
    def test_bytes_exact_multiple_is_zero_copy(self):
        raw = bytes(range(256)) * 2
        matrix = as_payload_matrix(raw, 128)
        assert matrix.shape == (4, 128)
        assert matrix.tobytes() == raw
        # The conversion reshapes a view over the buffer, no copy.
        assert matrix.base is not None

    def test_bytes_with_padding(self):
        matrix = as_payload_matrix(b"abcde", 4)
        assert matrix.shape == (2, 4)
        assert matrix[0].tobytes() == b"abcd"
        assert matrix[1].tobytes() == b"e\x00\x00\x00"

    def test_empty_input(self):
        assert as_payload_matrix(b"", 32).shape == (0, 32)
        assert as_payload_matrix([], 32).shape == (0, 32)

    def test_sequence_of_payloads(self):
        matrix = as_payload_matrix([b"ab", b"cdef"], 4)
        assert matrix.shape == (2, 4)
        assert matrix[0].tobytes() == b"ab\x00\x00"

    def test_2d_array_passthrough(self):
        source = random_matrix(3, 16)
        matrix = as_payload_matrix(source, 16)
        assert matrix is source or matrix.base is source

    def test_row_width_mismatch_rejected(self):
        with pytest.raises(BlockSizeMismatchError):
            as_payload_matrix(random_matrix(2, 8), 16)


class TestKernels:
    def test_xor_into_is_in_place(self):
        a = random_matrix(1, 32)[0].copy()
        b = random_matrix(1, 32, seed=8)[0]
        expected = np.bitwise_xor(a, b)
        result = xor_into(a, b)
        assert result is a
        assert np.array_equal(a, expected)

    def test_xor_into_size_mismatch(self):
        with pytest.raises(BlockSizeMismatchError):
            xor_into(np.zeros(8, dtype=np.uint8), np.zeros(9, dtype=np.uint8))

    def test_xor_accumulate_matches_running_xor(self):
        matrix = random_matrix(6, 32)
        expected = np.zeros_like(matrix)
        running = np.zeros(32, dtype=np.uint8)
        for row in range(6):
            running = np.bitwise_xor(running, matrix[row])
            expected[row] = running
        result = xor_accumulate(matrix.copy())
        assert np.array_equal(result, expected)

    def test_xor_accumulate_with_initial(self):
        matrix = random_matrix(4, 32)
        head = random_matrix(1, 32, seed=11)[0]
        expected = xor_accumulate(matrix.copy())
        expected = np.bitwise_xor(expected, head)  # XOR distributes over the scan
        result = xor_accumulate(matrix.copy(), initial=head)
        assert np.array_equal(result, expected)


class TestStrandLabelsVectorised:
    @pytest.mark.parametrize("cls", list(StrandClass))
    def test_matches_scalar_labels(self, any_params, cls):
        if cls is not StrandClass.HORIZONTAL and any_params.p == 0:
            pytest.skip("AE(1) has no helical strands")
        indexes = np.arange(1, 200, dtype=np.int64)
        vectorised = strand_labels(indexes, cls, any_params)
        scalar = [strand_label(int(i), cls, any_params) for i in indexes]
        assert vectorised.tolist() == scalar


class TestBatchEquivalence:
    """`BatchEntangler` must be bit-identical to the sequential encoder."""

    @pytest.mark.parametrize(
        "spec", ["AE(1,-,-)", "AE(2,2,2)", "AE(2,2,5)", "AE(3,2,5)", "AE(3,5,5)", "AE(3,1,4)"]
    )
    @pytest.mark.parametrize("splits", [[(0, 41)], [(0, 1), (1, 2), (2, 41)], [(0, 13), (13, 41)]])
    def test_bit_identical_to_sequential(self, spec, splits):
        params = AEParameters.parse(spec)
        data = random_matrix(41)
        sequential = Entangler(params, BLOCK)
        batched = BatchEntangler(params, BLOCK)
        expected = [sequential.entangle(row) for row in data]
        produced = []
        for lo, hi in splits:
            produced.extend(batched.entangle_batch(data[lo:hi]).encoded_blocks())
        assert len(produced) == len(expected)
        for want, got in zip(expected, produced):
            assert want.data_id == got.data_id
            assert np.array_equal(want.data.payload, got.data.payload)
            assert [p.block_id for p in want.parities] == [p.block_id for p in got.parities]
            for wp, gp in zip(want.parities, got.parities):
                assert np.array_equal(wp.payload, gp.payload)
        # The in-memory strand heads agree, so encoding can continue either way.
        assert sequential._heads.snapshot() == batched._heads.snapshot()

    def test_mixing_single_and_batched_calls(self, hec_params):
        data = random_matrix(20)
        sequential = Entangler(hec_params, BLOCK)
        mixed = BatchEntangler(hec_params, BLOCK)
        expected = [sequential.entangle(row) for row in data]
        produced = [mixed.entangle(data[0])]
        produced.extend(mixed.entangle_batch(data[1:15]).encoded_blocks())
        produced.append(mixed.entangle(data[15]))
        produced.extend(mixed.entangle_batch(data[16:]).encoded_blocks())
        for want, got in zip(expected, produced):
            assert want.data_id == got.data_id
            for wp, gp in zip(want.parities, got.parities):
                assert np.array_equal(wp.payload, gp.payload)

    def test_empty_batch(self, hec_params):
        encoder = BatchEntangler(hec_params, BLOCK)
        batch = encoder.entangle_batch(b"")
        assert batch.block_count == 0
        assert encoder.blocks_encoded == 0


class TestEncodedBatch:
    def test_iter_blocks_order_and_ids(self, hec_params):
        encoder = BatchEntangler(hec_params, BLOCK)
        batch = encoder.entangle_batch(random_matrix(4))
        blocks = list(batch.iter_blocks())
        assert len(blocks) == 4 * (1 + hec_params.alpha)
        assert blocks[0][0] == DataId(1)
        assert blocks[1][0] == ParityId(1, StrandClass.HORIZONTAL)
        # Payloads are views into the batch matrices, not copies.
        assert blocks[0][1].base is not None


class TestCrashRecoveryInterop:
    def test_restore_after_batched_encode(self, hec_params):
        """A sequential encoder can restore from blocks a batch encoder wrote."""
        batched = BatchEntangler(hec_params, BLOCK)
        store = {}
        for lo, hi in [(0, 9), (9, 23)]:
            batch = batched.entangle_batch(random_matrix(23)[lo:hi])
            for block_id, payload in batch.iter_blocks():
                store[block_id] = payload
        recovered = Entangler(hec_params, BLOCK)
        recovered.restore(23, store.get)
        assert recovered._heads.snapshot() == batched._heads.snapshot()


@st.composite
def batch_streams(draw):
    """A code setting, a start offset inside one lattice period and a
    partition of a block stream into batches of 0 .. 3 periods."""
    alpha, s, p = draw(
        st.sampled_from([(1, 1, 0), (2, 1, 3), (2, 2, 2), (2, 2, 5), (3, 1, 4), (3, 2, 5), (3, 3, 4), (3, 5, 5)])
    )
    params = AEParameters(alpha, s, p)
    period = s * max(p, 1)
    offset = draw(st.integers(min_value=0, max_value=period - 1))
    sizes = draw(st.lists(st.integers(min_value=0, max_value=3 * period), min_size=1, max_size=6))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return params, offset, sizes, seed


class TestPlannedScan:
    """The scan plan is looked up, not re-derived: any partition from any
    offset must still be the sequential encoder, bit for bit."""

    SIZE = 8

    @settings(deadline=None, max_examples=60)
    @given(batch_streams())
    def test_any_partition_from_any_offset_equals_sequential(self, stream):
        params, offset, sizes, seed = stream
        data = random_matrix(offset + sum(sizes), self.SIZE, seed=seed)
        sequential = Entangler(params, self.SIZE)
        batched = BatchEntangler(params, self.SIZE)
        expected = [sequential.entangle(row) for row in data]
        for row in data[:offset]:
            batched.entangle(row)
        cursor = offset
        for size in sizes:
            # ``bytes``: the batch matrix is a read-only view over them.
            raw = data[cursor : cursor + size].tobytes()
            batch = batched.entangle_batch(raw)
            assert batch.data.tobytes() == raw
            assert batch.data_ids == [e.data_id for e in expected[cursor : cursor + size]]
            assert batch.parities.shape == (params.alpha, size, self.SIZE)
            for want, got in zip(expected[cursor : cursor + size], batch.encoded_blocks()):
                assert [p.block_id for p in want.parities] == [p.block_id for p in got.parities]
                for wanted, produced in zip(want.parities, got.parities):
                    assert np.array_equal(wanted.payload, produced.payload)
            cursor += size
            assert batched.blocks_encoded == cursor
        assert sequential._heads.snapshot() == batched._heads.snapshot()
        for strand in sequential._heads.snapshot():
            assert np.array_equal(
                sequential._heads.head_payload(strand), batched._heads.head_payload(strand)
            )

    def test_parities_are_fresh_writable_and_alias_nothing(self, hec_params):
        raw = random_matrix(23).tobytes()
        encoder = BatchEntangler(hec_params, BLOCK)
        batch = encoder.entangle_batch(raw)
        assert not batch.data.flags.writeable  # a view over the caller's bytes
        assert batch.parities.flags.writeable
        assert not np.shares_memory(batch.parities, batch.data)
        expected = batch.parities.copy()
        for position in range(hec_params.alpha):
            for row in range(23):
                batch.parities[position, row] ^= 0xFF
                expected[position, row] ^= 0xFF
                # Exactly one row moved: no parity aliases another.
                assert np.array_equal(batch.parities, expected)
        assert batch.data.tobytes() == raw

    def test_a_head_of_the_wrong_size_raises_and_moves_nothing(self, hec_params):
        encoder = BatchEntangler(hec_params, BLOCK)
        encoder.entangle_batch(random_matrix(10))
        strand = StrandId(StrandClass.LEFT_HANDED, 3)
        creator, _ = encoder._heads.head(strand)
        # One byte would broadcast if numpy were left to judge.
        encoder._heads.update(strand, creator, np.zeros(1, dtype=np.uint8))
        before = encoder._heads.snapshot()
        with pytest.raises(BlockSizeMismatchError):
            encoder.entangle_batch(random_matrix(10, seed=8))
        assert encoder.blocks_encoded == 10
        assert encoder._heads.snapshot() == before

    def test_plan_memo_stays_bounded_and_survives_restore(self):
        # AE(3,10,10): 100 start offsets x 100 batch sizes = 10 000 plans.
        params = AEParameters(3, 10, 10)
        encoder = BatchEntangler(params, 4)
        seen = set()
        for count in range(1, 101):
            for start in range(1, 101):
                plan = encoder._scan_plan(start, count)
                seen.add((start, count))
                assert sum(len(rows) for _, rows in plan[0]) == count
            held = sum(count for _, count in encoder._plans)
            assert held == encoder._plan_rows <= _PLAN_MEMO_ROWS
        assert len(seen) == 10_000
        assert 0 < len(encoder._plans) < 10_000
        # A plan larger than the whole budget is used, never kept.
        encoder._scan_plan(1, _PLAN_MEMO_ROWS + 1)
        assert encoder._plan_rows <= _PLAN_MEMO_ROWS
        # Plans belong to the code setting, not to the lattice position:
        # after a crash restore at any size they still give the right chains.
        data = random_matrix(257, 4, seed=3)
        sequential = Entangler(params, 4)
        store = {}
        for row in data[:130]:
            for block in sequential.entangle(row).all_blocks():
                store[block.block_id] = block.payload
        encoder.restore(130, store.get)
        produced = encoder.entangle_batch(data[130:230]).encoded_blocks()
        produced += encoder.entangle_batch(data[230:]).encoded_blocks()
        for row, got in zip(data[130:], produced):
            want = sequential.entangle(row)
            assert want.data_id == got.data_id
            for wanted, made in zip(want.parities, got.parities):
                assert np.array_equal(wanted.payload, made.payload)
        assert sequential._heads.snapshot() == encoder._heads.snapshot()
