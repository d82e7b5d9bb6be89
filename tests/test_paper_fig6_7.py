"""Figures 6 and 7: primitive and complex minimal-erasure forms (Sec. V-A).

Fig. 6 draws the two primitive forms of a single entanglement, |ME(2)| = 3
(form I) and 6 (form II with a gap of four); Fig. 7 the complex forms A-D the
exhaustive pattern search finds for alpha > 1.
"""

from __future__ import annotations

from repro.analysis.erasure_patterns import (
    is_minimal_erasure,
    primitive_form_one,
    primitive_form_two,
)
from repro.analysis.fault_tolerance import complex_form_catalogue
from repro.core.parameters import AEParameters


def test_fig6_primitive_forms():
    params = AEParameters.single()
    form_one = primitive_form_one()
    form_two = primitive_form_two(gap=4)
    assert is_minimal_erasure(form_one, params)
    assert is_minimal_erasure(form_two, params)
    assert (form_one.size, form_two.size) == (3, 6)


def test_fig7_complex_forms():
    values = {row["setting"]: row["|ME(2)|"] for row in complex_form_catalogue("search")}
    assert values["AE(2,1,1)"] == 4
    assert values["AE(3,1,1)"] == 5
    assert values["AE(3,1,4)"] == 8
    assert values["AE(3,4,4)"] == 14
