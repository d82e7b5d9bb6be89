"""Minimal erasure (ME) patterns: the fault-tolerance analysis of Section V-A.

A *minimal erasure* is an irreducible set of simultaneously lost blocks that
the decoder cannot repair: every block in the set stays lost, and removing any
single block from the set makes at least one of the remaining blocks
repairable again.  The paper characterises patterns by their total size and by
the number of data blocks they contain: ``|ME(x)|`` is the size of the
smallest irrecoverable pattern that loses exactly ``x`` data blocks.  Larger
``|ME(x)|`` means better fault tolerance (more blocks must be lost *in exactly
the wrong places* before data disappears).

Two engines are provided:

* a **validator** that replays the store's repair rounds
  (:func:`~repro.core.batch_repair.plan_round`) on an abstract availability
  model and checks irrecoverability and minimality of any candidate pattern
  (the role of the authors' Prolog tool);
* a **searcher** that finds ``|ME(x)|`` exactly.  It exploits the structure of
  minimal patterns: blocking a data block on one strand requires erasing a
  *chain* of consecutive parities along that strand that terminates at another
  erased data block, so a minimal pattern is a set of data nodes plus, for
  every (node, strand) pair, the cheapest such chain.  The searcher enumerates
  candidate data-node sets inside a window (anchored away from the lattice
  boundary so the analysis reflects steady-state behaviour) and minimises the
  union of chain edges with branch and bound.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.core.batch_repair import block_sort_key, plan_round
from repro.core.blocks import BlockId, DataId, ParityId, is_data
from repro.core.lattice import HelicalLattice
from repro.core.parameters import AEParameters, StrandClass
from repro.core.position import strand_label
from repro.core.rules import input_index, output_index
from repro.exceptions import InvalidParametersError

#: An erased parity edge, identified by (creator node, strand class).
Edge = Tuple[int, StrandClass]


@dataclass(frozen=True)
class ErasurePattern:
    """A set of erased blocks: data node indexes plus parity edges."""

    data_nodes: FrozenSet[int]
    parity_edges: FrozenSet[Edge]

    @property
    def size(self) -> int:
        return len(self.data_nodes) + len(self.parity_edges)

    @property
    def data_count(self) -> int:
        return len(self.data_nodes)

    def block_ids(self) -> List[BlockId]:
        blocks: List[BlockId] = [DataId(index) for index in sorted(self.data_nodes)]
        blocks.extend(
            ParityId(creator, strand_class)
            for creator, strand_class in sorted(
                self.parity_edges, key=lambda edge: (edge[0], edge[1].value)
            )
        )
        return blocks

    def shifted(self, offset: int) -> "ErasurePattern":
        """Translate the pattern by ``offset`` lattice positions."""
        return ErasurePattern(
            data_nodes=frozenset(index + offset for index in self.data_nodes),
            parity_edges=frozenset(
                (creator + offset, strand_class)
                for creator, strand_class in self.parity_edges
            ),
        )

    def describe(self, params: AEParameters) -> str:
        lattice = HelicalLattice(params, max(self.data_nodes | {c for c, _ in self.parity_edges}) + 4 * params.s * max(params.p, 1))
        edges = ", ".join(
            lattice.parity_label(ParityId(creator, strand_class))
            for creator, strand_class in sorted(
                self.parity_edges, key=lambda edge: (edge[0], edge[1].value)
            )
        )
        nodes = ", ".join(f"d{index}" for index in sorted(self.data_nodes))
        return f"|ME({self.data_count})| = {self.size}: nodes {{{nodes}}}, parities {{{edges}}}"


# ----------------------------------------------------------------------
# Validation: the store's repair rounds on an abstract availability model
# ----------------------------------------------------------------------
def recoverable_blocks(
    pattern: ErasurePattern, params: AEParameters, lattice_size: Optional[int] = None
) -> Set[BlockId]:
    """Blocks of ``pattern`` that the decoder can eventually repair.

    Blocks outside the pattern are available.  The store's
    :func:`~repro.core.batch_repair.plan_round` runs round after round -- a
    data node comes back through a strand whose two parities are available,
    a parity through one of its two dp-tuples -- until a round plans
    nothing.  Blocks beyond the ``lattice_size`` nodes do not exist and are
    never recovered.
    """
    if lattice_size is None:
        margin = 4 * params.s * max(params.p, 1) + 4 * params.s
        top = max(
            [index for index in pattern.data_nodes]
            + [creator for creator, _ in pattern.parity_edges]
            + [1]
        )
        lattice_size = top + margin
    lattice = HelicalLattice(params, lattice_size)
    missing = set(pattern.block_ids())
    recovered: Set[BlockId] = set()
    while True:
        steps = plan_round(
            lattice, sorted(missing, key=block_sort_key), lambda block_id: block_id not in missing
        )
        if not steps:
            return recovered
        targets = {step.target for step in steps}
        missing.difference_update(targets)
        recovered.update(targets)


def is_irrecoverable(pattern: ErasurePattern, params: AEParameters) -> bool:
    """True when the decoder cannot repair any block of the pattern."""
    return not recoverable_blocks(pattern, params)


def is_minimal_erasure(pattern: ErasurePattern, params: AEParameters) -> bool:
    """True when the pattern is irrecoverable and irreducible.

    Irreducible: restoring any single block of the pattern lets the decoder
    repair at least one of the remaining blocks.
    """
    if not is_irrecoverable(pattern, params):
        return False
    for block_id in pattern.block_ids():
        if is_data(block_id):
            reduced = ErasurePattern(
                data_nodes=pattern.data_nodes - {block_id.index},
                parity_edges=pattern.parity_edges,
            )
        else:
            reduced = ErasurePattern(
                data_nodes=pattern.data_nodes,
                parity_edges=pattern.parity_edges
                - {(block_id.index, block_id.strand_class)},
            )
        if not reduced.size:
            continue
        if not recoverable_blocks(reduced, params):
            return False
    return True


# ----------------------------------------------------------------------
# Primitive forms (Fig. 6) for single entanglements
# ----------------------------------------------------------------------
def primitive_form_one(anchor: int = 0) -> ErasurePattern:
    """Primitive form I for AE(1): two adjacent nodes and their shared edge."""
    base = anchor if anchor else 100
    return ErasurePattern(
        data_nodes=frozenset({base, base + 1}),
        parity_edges=frozenset({(base, StrandClass.HORIZONTAL)}),
    )


def primitive_form_two(gap: int = 3, anchor: int = 0) -> ErasurePattern:
    """Primitive form II for AE(1): two non-adjacent nodes plus every edge between them."""
    if gap < 2:
        raise InvalidParametersError("primitive form II needs a gap of at least 2")
    base = anchor if anchor else 100
    edges = frozenset((base + offset, StrandClass.HORIZONTAL) for offset in range(gap))
    return ErasurePattern(
        data_nodes=frozenset({base, base + gap}), parity_edges=edges
    )


# ----------------------------------------------------------------------
# Chain machinery for the exact searcher
# ----------------------------------------------------------------------
def _chain_forward(
    start: int,
    strand_class: StrandClass,
    params: AEParameters,
    targets: Set[int],
    max_hops: int,
) -> Optional[FrozenSet[Edge]]:
    """Edges of the forward chain from ``start`` to the nearest target on the strand."""
    edges: List[Edge] = []
    current = start
    for _ in range(max_hops):
        edges.append((current, strand_class))
        nxt = output_index(current, strand_class, params)
        if nxt in targets:
            return frozenset(edges)
        current = nxt
    return None


def _chain_backward(
    start: int,
    strand_class: StrandClass,
    params: AEParameters,
    targets: Set[int],
    max_hops: int,
) -> Optional[FrozenSet[Edge]]:
    """Edges of the backward chain from ``start`` to the nearest target on the strand."""
    edges: List[Edge] = []
    current = start
    for _ in range(max_hops):
        prev = input_index(current, strand_class, params)
        if prev < 1:
            return None  # reached the lattice boundary without meeting a target
        edges.append((prev, strand_class))
        if prev in targets:
            return frozenset(edges)
        current = prev
    return None


def _minimal_edge_cover(
    requirement_options: Sequence[Sequence[FrozenSet[Edge]]],
    best_bound: Optional[int] = None,
) -> Optional[FrozenSet[Edge]]:
    """Choose one option per requirement minimising the size of the union.

    Branch and bound over the requirements, most-constrained first.
    """
    ordered = sorted(requirement_options, key=len)
    best: Optional[FrozenSet[Edge]] = None
    best_size = best_bound if best_bound is not None else float("inf")

    def recurse(position: int, chosen: FrozenSet[Edge]) -> None:
        nonlocal best, best_size
        if len(chosen) >= best_size:
            return
        if position == len(ordered):
            best = chosen
            best_size = len(chosen)
            return
        for option in sorted(ordered[position], key=lambda edges: len(edges - chosen)):
            recurse(position + 1, chosen | option)

    recurse(0, frozenset())
    return best


def _candidate_feasible(
    data_nodes: Sequence[int], params: AEParameters
) -> bool:
    """Quick label-based feasibility test: every (node, class) needs a partner."""
    for index in data_nodes:
        for strand_class in params.strand_classes:
            label = strand_label(index, strand_class, params)
            if not any(
                other != index
                and strand_label(other, strand_class, params) == label
                for other in data_nodes
            ):
                return False
    return True


def minimal_pattern_for_nodes(
    data_nodes: Sequence[int], params: AEParameters, max_hops: Optional[int] = None
) -> Optional[ErasurePattern]:
    """Smallest irrecoverable pattern whose data blocks are exactly ``data_nodes``.

    Returns ``None`` when no such pattern exists (some strand of some node has
    no other erased data node on it, so the node would always be repairable
    through that strand).
    """
    nodes = sorted(set(int(index) for index in data_nodes))
    if len(nodes) < 1:
        raise InvalidParametersError("at least one data node is required")
    if max_hops is None:
        max_hops = 2 * params.s * max(params.p, 1) + 4 * params.s + 4
    node_set = set(nodes)
    requirements: List[List[FrozenSet[Edge]]] = []
    for index in nodes:
        for strand_class in params.strand_classes:
            options: List[FrozenSet[Edge]] = []
            forward = _chain_forward(index, strand_class, params, node_set - {index}, max_hops)
            if forward is not None:
                options.append(forward)
            backward = _chain_backward(index, strand_class, params, node_set - {index}, max_hops)
            if backward is not None:
                options.append(backward)
            if not options:
                return None
            requirements.append(options)
    cover = _minimal_edge_cover(requirements)
    if cover is None:
        return None
    return ErasurePattern(data_nodes=frozenset(nodes), parity_edges=cover)


@dataclass
class MinimalErasureResult:
    """Result of a |ME(x)| search."""

    params: AEParameters
    data_count: int
    size: Optional[int]
    pattern: Optional[ErasurePattern] = None
    candidates_examined: int = 0

    def summary(self) -> str:
        if self.size is None:
            return (
                f"{self.params.spec()}: no ME({self.data_count}) pattern found "
                f"within the search window"
            )
        return f"{self.params.spec()}: |ME({self.data_count})| = {self.size}"


def find_minimal_erasure(
    params: AEParameters,
    data_count: int,
    span: Optional[int] = None,
    validate: bool = True,
) -> MinimalErasureResult:
    """Exact search for ``|ME(data_count)|``.

    ``span`` bounds how far (in lattice positions) the erased data nodes may be
    from the anchor node; the default covers one full helical cycle plus a
    safety margin, which contains the optimal patterns for the settings studied
    in the paper.
    """
    if data_count < 1:
        raise InvalidParametersError("data_count must be >= 1")
    if span is None:
        span = params.s * max(params.p, 1) + 2 * params.s + 2
    # Anchor far from the lattice boundary so chains never hit the start.
    base = 4 * params.s * max(params.p, 1) + 8 * params.s + 10
    best_pattern: Optional[ErasurePattern] = None
    examined = 0

    if data_count == 1:
        # A single data block can only be irrecoverable if every strand chain
        # reaches the lattice boundary; in the steady state no ME(1) exists.
        return MinimalErasureResult(params, 1, None, None, 0)

    for anchor_row in range(params.s):
        anchor = base + anchor_row
        offsets = range(1, span + 1)
        for combo in itertools.combinations(offsets, data_count - 1):
            nodes = [anchor] + [anchor + offset for offset in combo]
            examined += 1
            if best_pattern is not None and len(nodes) >= best_pattern.size:
                continue
            if not _candidate_feasible(nodes, params):
                continue
            pattern = minimal_pattern_for_nodes(nodes, params)
            if pattern is None:
                continue
            if best_pattern is None or pattern.size < best_pattern.size:
                best_pattern = pattern
    if best_pattern is None:
        return MinimalErasureResult(params, data_count, None, None, examined)
    if validate and not is_irrecoverable(best_pattern, params):
        raise InvalidParametersError(
            "internal error: searched pattern is recoverable; please report"
        )
    return MinimalErasureResult(
        params, data_count, best_pattern.size, best_pattern, examined
    )


def minimal_erasure_size(
    params: AEParameters, data_count: int, span: Optional[int] = None
) -> Optional[int]:
    """Convenience wrapper returning only ``|ME(data_count)|``."""
    return find_minimal_erasure(params, data_count, span=span).size
