"""Sec. IV-B1: five-year reliability of entangled mirrors against mirroring.

The earlier work the paper recaps reports that an open entangled chain cuts
the probability of data loss of a mirrored array by roughly 90 % and a
closed chain by roughly 98 %.  The Monte-Carlo model reproduces that order
on ten drive pairs.
"""

from __future__ import annotations

from repro.analysis.reliability import five_year_comparison


def test_entangled_mirror_five_year_reliability():
    results = five_year_comparison(drive_pairs=10, trials=600, seed=3)
    mirroring = results["mirroring"]
    open_chain = results["entangled-open"]
    closed_chain = results["entangled-closed"]
    assert mirroring.loss_probability > 0
    assert 0.85 <= open_chain.improvement_over(mirroring) <= 0.95
    assert closed_chain.improvement_over(mirroring) >= 0.95
    assert closed_chain.loss_probability <= open_chain.loss_probability
