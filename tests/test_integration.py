"""End-to-end integration tests crossing module boundaries."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.blocks import DataId
from repro.core.decoder import Decoder
from repro.core.encoder import Entangler
from repro.core.parameters import AEParameters
from repro.core.xor import payloads_equal
from repro.simulation.workload import WorkloadSpec, payload_stream
from repro.storage.failures import disaster_for_fraction
from repro.system.service import StorageConfig, StorageService

from tests.conftest import make_payload


class TestArchiveLifecycle:
    """Encode -> disaster -> repair -> upgrade -> disaster again."""

    def test_full_lifecycle(self):
        system = StorageService.open(
            StorageConfig(scheme="ae-2-2-5", topology=40, block_size=256, seed=13)
        )
        documents = {
            f"doc-{index}": make_payload(index, 3_000 + 137 * index) for index in range(6)
        }
        for name, payload in documents.items():
            system.put(name, payload)

        # First disaster: 25% of the locations disappear.
        disaster = disaster_for_fraction(40, 0.25, np.random.default_rng(5))
        system.fail_locations(disaster.failed_locations)
        for name, payload in documents.items():
            assert system.get(name) == payload
        report = system.repair()
        assert report.data_loss == 0

        # The archive owner later raises alpha from 2 to 3 without re-encoding.
        system.restore_locations()  # a write needs every location it places on
        lattice = system.scheme.lattice
        report = system.transition_to("ae-3-2-5")
        assert report.parities_written == lattice.size
        assert report.data_blocks_rewritten == 0
        for name, payload in documents.items():
            assert system.get(name) == payload

    def test_streamed_workload_roundtrip(self):
        params = AEParameters.triple(2, 5)
        encoder = Entangler(params, block_size=512)
        store = {}
        payloads = list(payload_stream(WorkloadSpec(block_count=64, block_size=512, seed=3)))
        for encoded in encoder.encode_stream(payloads):
            for block in encoded.all_blocks():
                store[block.block_id] = block.payload
        # Wipe a contiguous range of data blocks and every third parity.
        removed = {}
        for index in range(20, 30):
            removed[DataId(index)] = store.pop(DataId(index))
        for index in range(1, 65, 3):
            for parity in encoder.lattice.output_parities(index)[:1]:
                store.pop(parity, None)
        decoder = Decoder(encoder.lattice, store.get, 512)
        for index in range(20, 30):
            assert payloads_equal(decoder.repair(DataId(index)), removed[DataId(index)])

    @pytest.mark.parametrize("fraction", [0.1, 0.3])
    def test_documents_survive_paper_style_disasters(self, fraction):
        system = StorageService.open(
            StorageConfig(scheme="ae-3-2-5", topology=60, block_size=256, seed=21)
        )
        payload = make_payload(99, 30_000)
        system.put("archive", payload)
        disaster = disaster_for_fraction(60, fraction, np.random.default_rng(9))
        system.fail_locations(disaster.failed_locations)
        assert system.get("archive") == payload
