"""Entanglement rules: Tables I and II of the paper.

Every data block ``d_i`` is entangled once per strand class.  On a given
class the entanglement XORs ``d_i`` with an *input* parity ``p_{h,i}`` (the
parity at the head of the strand) and produces an *output* parity ``p_{i,j}``
which becomes the new strand head.  Tables I and II define the indexes ``h``
and ``j`` as a function of the node category (top / central / bottom):

========  ==================  =====================  =====================
category  horizontal           right-handed           left-handed
========  ==================  =====================  =====================
INPUT ``h`` (Table I)
top       ``i - s``            ``i - s*p + (s^2-1)``  ``i - (s-1)``
central   ``i - s``            ``i - (s+1)``          ``i - (s-1)``
bottom    ``i - s``            ``i - (s+1)``          ``i - s*p + (s-1)^2``
OUTPUT ``j`` (Table II)
top       ``i + s``            ``i + s + 1``          ``i + s*p - (s-1)^2``
central   ``i + s``            ``i + s + 1``          ``i + s - 1``
bottom    ``i + s``            ``i + s*p - (s^2-1)``  ``i + s - 1``
========  ==================  =====================  =====================

Worked example from the paper (AE(3,5,5), top node ``d26``): the node is
tangled with ``p21,26`` (H), ``p25,26`` (RH), ``p22,26`` (LH) and creates
``p26,31`` (H), ``p26,32`` (RH), ``p26,35`` (LH).

Single-row lattices (``s == 1``) are degenerate: every node is both the top
and the bottom of its column.  We adopt the convention that helical strands
advance ``p`` positions per step (``h = i - p``, ``j = i + p``), which
reproduces the paper's minimal-erasure sizes for AE(3,1,4) (|ME(2)| = 8) and
the complex forms of Figure 7.

A returned input index ``h <= 0`` means the strand starts at node ``i``: the
input parity is a virtual all-zero block (the first parity of a strand equals
its first data block).
"""

from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType
from typing import Dict, Mapping, Tuple

from repro.core.parameters import AEParameters, NodeCategory, StrandClass
from repro.core.position import node_category
from repro.exceptions import InvalidParametersError, LatticeBoundsError


def input_index(index: int, strand_class: StrandClass, params: AEParameters) -> int:
    """Index ``h`` such that ``d_index`` is tangled with ``p_{h,index}`` (Table I).

    A non-positive return value indicates that the strand begins at ``index``
    and the input parity is a virtual zero block.
    """
    _check(index, strand_class, params)
    s, p = params.s, params.p
    if strand_class is StrandClass.HORIZONTAL:
        return index - s
    if s == 1:
        return index - p
    category = node_category(index, s)
    if strand_class is StrandClass.RIGHT_HANDED:
        if category is NodeCategory.TOP:
            return index - s * p + (s * s - 1)
        return index - (s + 1)
    # Left-handed strand.
    if category is NodeCategory.BOTTOM:
        return index - s * p + (s - 1) ** 2
    return index - (s - 1)


def output_index(index: int, strand_class: StrandClass, params: AEParameters) -> int:
    """Index ``j`` such that the entanglement of ``d_index`` creates ``p_{index,j}``
    (Table II)."""
    _check(index, strand_class, params)
    s, p = params.s, params.p
    if strand_class is StrandClass.HORIZONTAL:
        return index + s
    if s == 1:
        return index + p
    category = node_category(index, s)
    if strand_class is StrandClass.RIGHT_HANDED:
        if category is NodeCategory.BOTTOM:
            return index + s * p - (s * s - 1)
        return index + s + 1
    # Left-handed strand.
    if category is NodeCategory.TOP:
        return index + s * p - (s - 1) ** 2
    return index + s - 1


#: Per strand class, ``(h - i, j - i)`` for every lattice row.
RuleOffsets = Mapping[StrandClass, Tuple[Tuple[int, ...], Tuple[int, ...]]]


@lru_cache(maxsize=64)
def rule_offsets(params: AEParameters) -> RuleOffsets:
    """Tables I and II tabulated once per setting, as offsets by lattice row.

    ``h - i`` and ``j - i`` depend only on the strand class and the node's
    row ``(i - 1) % s``, so the rules are asked at the first node of every
    row: ``rule_offsets(params)[cls]`` is ``(inputs, outputs)`` with
    ``input_index(i, cls, params) == i + inputs[(i - 1) % s]`` and
    ``output_index(i, cls, params) == i + outputs[(i - 1) % s]``.  Whole-round
    and whole-array consumers (the repair planner, the availability engine)
    read this table instead of asking the rules node by node; it is shared
    and read-only, in ``params.strand_classes`` order.
    """
    rows = range(1, params.s + 1)
    return MappingProxyType(
        {
            strand_class: (
                tuple(input_index(row, strand_class, params) - row for row in rows),
                tuple(output_index(row, strand_class, params) - row for row in rows),
            )
            for strand_class in params.strand_classes
        }
    )


def rule_table(params: AEParameters) -> Dict[str, Dict[str, Dict[str, int]]]:
    """Render Tables I and II symbolically for the given parameters.

    Returns a nested mapping ``{"input"/"output": {"top"/"central"/"bottom":
    {class: offset}}}`` expressed as signed integer offsets relative to ``i``.
    Useful for documentation, debugging and the rules unit tests.
    """
    rows = {NodeCategory.TOP: 0}
    if params.s >= 3:
        rows[NodeCategory.CENTRAL] = 1
    if params.s >= 2:
        rows[NodeCategory.BOTTOM] = params.s - 1
    offsets = rule_offsets(params)
    return {
        side: {
            category.value: {
                strand_class.value: by_row[column][row]
                for strand_class, by_row in offsets.items()
            }
            for category, row in rows.items()
        }
        for column, side in enumerate(("input", "output"))
    }


def edge_endpoints(
    creator: int, strand_class: StrandClass, params: AEParameters
) -> Tuple[int, int]:
    """Endpoints ``(i, j)`` of the parity created by ``creator`` on ``strand_class``."""
    return creator, output_index(creator, strand_class, params)


def _check(index: int, strand_class: StrandClass, params: AEParameters) -> None:
    if index < 1:
        raise LatticeBoundsError(f"node index must be >= 1, got {index}")
    if strand_class not in params.strand_classes:
        raise InvalidParametersError(
            f"strand class {strand_class} is not used by {params.spec()}"
        )
    if strand_class is not StrandClass.HORIZONTAL and params.p == 0:
        raise InvalidParametersError(
            f"{params.spec()} has no helical strands (p == 0)"
        )
