"""Tests for failure models: disasters and churn."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.blocks import DataId
from repro.exceptions import InvalidParametersError
from repro.storage.cluster import StorageCluster
from repro.storage.failures import (
    ChurnTrace,
    Disaster,
    PAPER_DISASTER_SIZES,
    disaster_for_fraction,
    disaster_series,
)
from repro.storage.placement import DictionaryPlacement


class TestDisasters:
    def test_fraction_controls_size(self):
        for fraction in PAPER_DISASTER_SIZES:
            disaster = disaster_for_fraction(100, fraction)
            assert disaster.size == int(round(100 * fraction))

    def test_apply_and_revert(self):
        cluster = StorageCluster(10)
        cluster.put_many([(DataId(index), b"x") for index in range(1, 21)])
        disaster = disaster_for_fraction(10, 0.3, np.random.default_rng(1))
        disaster.apply(cluster)
        assert len(cluster.unavailable_locations()) == 3
        disaster.revert(cluster)
        assert not cluster.unavailable_locations()

    def test_destructive_disaster_cannot_be_reverted(self):
        cluster = StorageCluster(10, DictionaryPlacement(10, {DataId(1): 0}))
        cluster.put_many([(DataId(1), b"x")])
        disaster = Disaster(failed_locations=(0,), destructive=True)
        disaster.apply(cluster)
        disaster.revert(cluster)
        assert 0 in cluster.unavailable_locations()

    def test_series_matches_paper_sizes(self):
        series = disaster_series(100)
        assert [d.size for d in series] == [10, 20, 30, 40, 50]

    def test_invalid_fraction(self):
        with pytest.raises(InvalidParametersError):
            disaster_for_fraction(10, 1.5)


class TestChurn:
    def test_poisson_trace_is_reproducible(self):
        one = ChurnTrace.poisson(20, 50, 0.05, 0.2, seed=3)
        two = ChurnTrace.poisson(20, 50, 0.05, 0.2, seed=3)
        assert [e.departures for e in one.events] == [e.departures for e in two.events]
        assert len(one.events) == 50

    def test_replay_changes_cluster_state(self):
        cluster = StorageCluster(20)
        trace = ChurnTrace.poisson(20, 30, departure_rate=0.2, return_rate=0.0, seed=1)
        trace.replay(cluster)
        assert cluster.unavailable_locations()

    def test_invalid_rates(self):
        with pytest.raises(InvalidParametersError):
            ChurnTrace.poisson(10, 10, -0.1, 0.1)
