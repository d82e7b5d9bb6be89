"""Round planning and execution for lattice repair, in bulk.

The sequential :class:`~repro.core.decoder.Decoder` rebuilds one block per
call: fetch the two tuple inputs, XOR them, return.  For a whole repair round
that is thousands of tiny Python round trips over payloads that are already
sitting in memory.  This module splits the round into two phases so the
storage layer and the XOR kernels each see one bulk operation:

* a round is planned by one rule in two forms.  A data block takes its
  first pp-tuple in strand-class order whose two parities are available, a
  parity its left dp-tuple before its right one -- the decoder's option
  order at recursion depth 0.  :func:`plan_round` walks the pending ids one
  by one against an availability oracle; :func:`pick_round` evaluates the
  same order as whole-array masks over a node window (an ``argmax`` over the
  strand classes).  Per-id work costs a large round, numpy's per-call
  dispatch costs a small one, so :class:`RepairRun` plans a round of at
  least :data:`ARRAY_ROUND_MIN` pending blocks on the masks and a smaller
  one id by id, and the availability engine
  (:class:`~repro.simulation.engine.LatticeSimulation`) runs every round on
  :func:`pick_round`;
* :func:`execute_plan` reconstructs all targets in a single
  :func:`~repro.core.xor.xor_pairs` pass: each step's two inputs are XORed
  straight into the target's row of one result matrix, nothing is gathered
  first.

Both tuple forms reduce to ``target = first XOR second`` with ``None``
standing for the virtual zero parity at strand extremities, so a round is
exactly one pairwise XOR pass regardless of how data and parity targets mix
-- the paper's repair cost, two reads and one XOR per block.

:class:`RepairRun` is the round loop itself (paper, Sec. V-C4: blocks
repaired in one round feed the next), written once and constructed in one
place: the scheme-level
:meth:`EntanglementScheme.repair <repro.codes.entanglement.EntanglementScheme.repair>`,
which every repair of a cluster reaches through
:meth:`StorageService.repair <repro.system.service.StorageService.repair>`.
"""

from __future__ import annotations

from functools import lru_cache, partial
from itertools import filterfalse, repeat
from operator import itemgetter
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.core.blocks import BlockId, DataId, ParityId, is_data
from repro.core.lattice import HelicalLattice
from repro.core.parameters import AEParameters, StrandClass
from repro.core.rules import rule_offsets
from repro.core.xor import Payload, xor_pairs

if TYPE_CHECKING:  # the protocol is declared with the schemes that read through it
    from repro.schemes.base import BlockSource

__all__ = [
    "ARRAY_ROUND_MIN",
    "RepairPlanStep",
    "RepairRun",
    "RoundPicks",
    "block_sort_key",
    "execute_plan",
    "pick_round",
    "plan_inputs",
    "plan_round",
]

#: Availability oracle: ``True`` when the block's payload can be produced
#: without repairing it (it is stored, or an earlier round rebuilt it).
AvailabilityProbe = Callable[[BlockId], bool]

#: The smallest pending set :class:`RepairRun` plans on the array rule
#: (:func:`pick_round`); smaller ones go through :func:`plan_round`.  Set
#: from a measurement of both forms planning one round of a store
#: (``docs/performance.md``, "the crossover"): numpy's per-call dispatch
#: makes the array form the slower one below it.
ARRAY_ROUND_MIN = 350


def block_sort_key(block_id: BlockId) -> Tuple[int, int, str]:
    """Lattice order: node by node, the data block before its parities."""
    if is_data(block_id):
        return (block_id.index, 0, "")
    return (block_id.index, 1, block_id.strand_class.value)


class RepairPlanStep(NamedTuple):
    """One planned reconstruction: ``target = first XOR second``.

    ``None`` inputs stand for the virtual zero block at a strand extremity
    (a data block at a strand start equals its output parity alone).
    """

    target: BlockId
    first: Optional[BlockId]
    second: Optional[BlockId]

    def inputs(self) -> List[BlockId]:
        return [block_id for block_id in (self.first, self.second) if block_id is not None]


def plan_round(
    lattice: HelicalLattice,
    pending: Iterable[BlockId],
    available: AvailabilityProbe,
) -> List[RepairPlanStep]:
    """Plan one repair round over ``pending`` blocks, id by id.

    Mirrors the option order of :class:`~repro.core.decoder.Decoder` at
    recursion depth 0: data blocks try their alpha pp-tuples in strand-class
    order, parities try the left dp-tuple before the right one.  Blocks
    without a fully available tuple are simply absent from the plan (they
    wait for a later round).  ``pending`` must not be treated as available
    by the probe: within a round every input comes from blocks that existed
    before the round started.
    """
    # Ids are built lazily, option by option, instead of materialising the
    # lattice's option lists: a round plans hundreds of blocks and usually
    # commits to the first viable tuple, so eager construction is pure waste.
    size = lattice.size
    s = lattice.params.s
    # Tables I and II as per-row offsets ``h - i`` / ``j - i``, not one rule
    # call per probe.
    offsets = rule_offsets(lattice.params)
    steps: List[RepairPlanStep] = []
    for block_id in pending:
        # ``lattice.has_block``, spelled out: the node exists and, below, a
        # parity's strand class is one of the lattice's.
        index = block_id.index
        if not 1 <= index <= size:
            continue
        row = (index - 1) % s
        if is_data(block_id):
            for strand_class, (inputs, _) in offsets.items():
                output_parity = ParityId(index, strand_class)
                if not available(output_parity):
                    continue
                h = index + inputs[row]
                input_parity = ParityId(h, strand_class) if h >= 1 else None
                if input_parity is not None and not available(input_parity):
                    continue
                steps.append(RepairPlanStep(block_id, input_parity, output_parity))
                break
        else:
            strand_class = block_id.strand_class
            if strand_class not in offsets:
                continue
            inputs, outputs = offsets[strand_class]
            # Left dp-tuple: p_{i,j} = d_i XOR p_{h,i} (virtual zero input at
            # a strand start).
            data = DataId(index)
            if available(data):
                h = index + inputs[row]
                parity = ParityId(h, strand_class) if h >= 1 else None
                if parity is None or available(parity):
                    steps.append(RepairPlanStep(block_id, data, parity))
                    continue
            # Right dp-tuple: p_{i,j} = d_j XOR p_{j,k}, once node j exists.
            j = index + outputs[row]
            if j <= size:
                data = DataId(j)
                if available(data):
                    parity = ParityId(j, strand_class)
                    if available(parity):
                        steps.append(RepairPlanStep(block_id, data, parity))
    return steps


@lru_cache(maxsize=64)
def _wiring(params: AEParameters) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`~repro.core.rules.rule_offsets` as two read-only ``(alpha, s)``
    arrays, ``h - i`` and ``j - i`` by strand-class column and row."""
    offsets = rule_offsets(params).values()
    inputs = np.array([row for row, _ in offsets], dtype=np.int64)
    outputs = np.array([row for _, row in offsets], dtype=np.int64)
    inputs.setflags(write=False)
    outputs.setflags(write=False)
    return inputs, outputs


class RoundPicks(NamedTuple):
    """:func:`pick_round`'s answer, one entry per target: whether a tuple
    was picked, and its two members as ``(node, column)`` pairs -- column
    ``-1`` a data block, node 0 the virtual zero parity of a strand start.
    The members of a target that was not picked mean nothing."""

    picked: np.ndarray
    first_node: np.ndarray
    first_column: np.ndarray
    second_node: np.ndarray
    second_column: np.ndarray


def pick_round(
    params: AEParameters,
    size: int,
    first: int,
    data_ok: np.ndarray,
    parity_ok: np.ndarray,
    nodes: np.ndarray,
    columns: np.ndarray,
) -> RoundPicks:
    """:func:`plan_round`'s rule as whole-array masks over a node window.

    ``data_ok`` ``(w,)`` and ``parity_ok`` ``(w, alpha)`` say which blocks
    of nodes ``first .. first + w - 1`` are available, parity columns in
    strand-class order; the window must hold every tuple member of every
    target inside the ``size``-node lattice.  Target ``k`` is node
    ``nodes[k]``'s data block when ``columns[k]`` is ``-1``, else its parity
    of that class column, and must be a block of the lattice; its own
    availability is not read.  A data block takes the first strand class
    whose input and output parities are both available (an ``argmax``), a
    parity its left dp-tuple before its right one -- the same picks as
    :func:`plan_round`, in the same ``(first, second)`` order.  A strand
    start's input parity is the virtual zero block and always available; a
    right tuple beyond node ``size`` does not exist.
    """
    inputs, outputs = _wiring(params)
    rows = (nodes - 1) % params.s
    count = nodes.size
    picked = np.zeros(count, dtype=bool)
    first_node = np.zeros(count, dtype=np.int64)
    second_node = np.zeros(count, dtype=np.int64)
    first_column = np.full(count, -1, dtype=np.int64)
    second_column = np.full(count, -1, dtype=np.int64)

    # Data: (p_{h,c}, p_{i,c}) for the first class c with both available.
    data = np.flatnonzero(columns < 0)
    i = nodes[data]
    h = i[:, None] + inputs[:, rows[data]].T
    whole = parity_ok[i - first] & (
        (h < 1) | parity_ok[np.maximum(h - first, 0), np.arange(parity_ok.shape[1])]
    )
    hit = whole.any(axis=1)
    cls = whole.argmax(axis=1)[hit]
    at = data[hit]
    picked[at] = True
    first_node[at] = np.maximum(h[hit][np.arange(cls.size), cls], 0)
    first_column[at] = second_column[at] = cls
    second_node[at] = i[hit]

    # Parities: left (d_i, p_{h,c}) before right (d_j, p_{j,c}).
    parity = np.flatnonzero(columns >= 0)
    i, cls = nodes[parity], columns[parity]
    h = i + inputs[cls, rows[parity]]
    j = i + outputs[cls, rows[parity]]
    left = data_ok[i - first] & ((h < 1) | parity_ok[np.maximum(h - first, 0), cls])
    inside = j <= size
    at = np.where(inside, j - first, 0)
    right = inside & data_ok[at] & parity_ok[at, cls]
    picked[parity] = left | right
    first_node[parity] = np.where(left, i, j)
    second_node[parity] = np.where(left, np.maximum(h, 0), j)
    second_column[parity] = cls
    return RoundPicks(picked, first_node, first_column, second_node, second_column)


def _ids(
    classes: Sequence[StrandClass], nodes: np.ndarray, columns: np.ndarray
) -> List[Optional[BlockId]]:
    """Ids of ``(node, column)`` pairs: column ``-1`` a data block, node 0
    the virtual zero parity (``None``).  Built in C, a kind at a time."""
    ids = np.full(nodes.size, None, dtype=object)
    for kind, mask in (
        (DataId, (nodes > 0) & (columns < 0)),
        (ParityId, (nodes > 0) & (columns >= 0)),
    ):
        fields: Iterable[Tuple[object, ...]] = (
            zip(nodes[mask].tolist())
            if kind is DataId
            else zip(nodes[mask].tolist(), map(classes.__getitem__, columns[mask].tolist()))
        )
        ids[mask] = np.fromiter(
            map(tuple.__new__, repeat(kind), fields), dtype=object, count=int(mask.sum())
        )
    return ids.tolist()


#: A strand class's place when parity ids of one node are sorted (by value).
_VALUE_RANK = {c: 1 + k for k, c in enumerate(sorted(StrandClass, key=lambda c: c.value))}


class _RoundMasks:
    """One round's availability as lattice masks: every ``pending`` or
    ``missed`` block unavailable, every other block available.

    The window spans the pending nodes and their tuple members, so
    :meth:`plan` answers for any target among them.
    """

    def __init__(
        self, lattice: HelicalLattice, pending: Iterable[BlockId], missed: Sequence[BlockId]
    ) -> None:
        params = lattice.params
        self._params = params
        self._size = lattice.size
        self._classes: Tuple[StrandClass, ...] = params.strand_classes
        # Every strand class has an entry, so a data id's last field (an int)
        # is the only miss: -1 data, -2 a class the lattice does not have.
        self._column = dict.fromkeys(StrandClass, -2)
        self._column.update((c, k) for k, c in enumerate(self._classes))
        inputs, outputs = _wiring(params)
        # ``sorted(pending)`` in numpy: node by node, the data block first,
        # then the parities by strand-class value (how the ids compare).  A
        # class the lattice lacks (column -2) is never planned, so its place
        # does not matter; the last entry is a data block's (column -1).
        unsorted = list(pending)
        nodes, columns = self._positions(unsorted)
        rank = np.array([_VALUE_RANK[c] for c in self._classes] + [0, 0])
        order = np.argsort(nodes * 4 + rank[columns], kind="stable")
        #: The pending ids in lattice order, the round's targets.
        self.targets: List[BlockId] = list(map(unsorted.__getitem__, order.tolist()))
        self._pending_at = nodes, columns = nodes[order], columns[order]
        inside = nodes[(nodes >= 1) & (nodes <= self._size)]
        self._first = max(1, int(inside.min()) + int(inputs.min())) if inside.size else 1
        last = min(self._size, int(inside.max()) + int(outputs.max())) if inside.size else 0
        width = max(last - self._first + 1, 0)
        self._data_ok = np.ones(width, dtype=bool)
        self._parity_ok = np.ones((width, params.alpha), dtype=bool)
        self._block(nodes, columns)
        self.block(missed)

    def _positions(self, block_ids: Sequence[BlockId]) -> Tuple[np.ndarray, np.ndarray]:
        """Node index and class column per id."""
        count = len(block_ids)
        nodes = np.fromiter(map(itemgetter(0), block_ids), dtype=np.int64, count=count)
        columns = np.fromiter(
            map(self._column.get, map(itemgetter(-1), block_ids), repeat(-1)),
            dtype=np.int64,
            count=count,
        )
        return nodes, columns

    def block(self, block_ids: Sequence[BlockId]) -> None:
        """Mark ``block_ids`` unavailable."""
        self._block(*self._positions(block_ids))

    def _block(self, nodes: np.ndarray, columns: np.ndarray) -> None:
        # Ids outside the window are no tuple member of any target.
        at = nodes - self._first
        inside = (at >= 0) & (at < self._data_ok.size)
        data = inside & (columns == -1)
        self._data_ok[at[data]] = False
        parity = inside & (columns >= 0)
        self._parity_ok[at[parity], columns[parity]] = False

    def plan(self, targets: Sequence[BlockId]) -> List[RepairPlanStep]:
        """:func:`plan_round` over ``targets``, in their order, on the masks."""
        if targets is self.targets:
            nodes, columns = self._pending_at
        else:
            nodes, columns = self._positions(targets)
        known = np.flatnonzero((nodes >= 1) & (nodes <= self._size) & (columns != -2))
        picks = pick_round(
            self._params,
            self._size,
            self._first,
            self._data_ok,
            self._parity_ok,
            nodes[known],
            columns[known],
        )
        picked = picks.picked
        classes = self._classes
        return list(
            map(
                tuple.__new__,
                repeat(RepairPlanStep),
                zip(
                    map(targets.__getitem__, known[picked].tolist()),
                    _ids(classes, picks.first_node[picked], picks.first_column[picked]),
                    _ids(classes, picks.second_node[picked], picks.second_column[picked]),
                ),
            )
        )


def plan_inputs(steps: Iterable[RepairPlanStep]) -> List[BlockId]:
    """The unique input blocks a plan consumes, in first-use order."""
    seen: Dict[BlockId, None] = {}
    setdefault = seen.setdefault
    for step in steps:
        if step.first is not None:
            setdefault(step.first, None)
        if step.second is not None:
            setdefault(step.second, None)
    return list(seen)


def execute_plan(
    steps: List[RepairPlanStep],
    payload_of: Callable[[BlockId], Payload],
    block_size: int,
) -> Dict[BlockId, Payload]:
    """Reconstruct every planned target in one pairwise XOR pass.

    ``payload_of`` must return the payload of every input named by the plan
    (the caller bulk-fetched them).  Returns ``{target: payload}``; each
    payload is a row of the one matrix :func:`~repro.core.xor.xor_pairs`
    allocates, so inputs -- including read-only zero-copy views from
    mmap-backed backends -- are never mutated.
    """
    if not steps:
        return {}
    rows = xor_pairs(
        [None if step.first is None else payload_of(step.first) for step in steps],
        [None if step.second is None else payload_of(step.second) for step in steps],
        block_size,
    )
    return {step.target: row for step, row in zip(steps, rows)}


class RepairRun:
    """Round-based lattice repair of a set of missing blocks, in bulk.

    Every round is planned against one availability rule: every pending
    block (and every block the run found it could not read) is unavailable,
    every other block available.  A pending set of at least
    :data:`ARRAY_ROUND_MIN` blocks is planned on lattice masks
    (:func:`pick_round`), a smaller one id by id (:func:`plan_round`); both
    pick the same pp-/dp-tuples the per-block decoder would.  The picked
    inputs not yet held are then checked with one exact pass of
    ``source.is_available``; the targets of any miss are planned again
    without it, within the same round, until the check passes.  The plan's
    inputs then arrive through one ``source.try_get_many`` call, steps whose
    inputs did not arrive (a location dying between the plan and the fetch,
    or a store that could not read the block) are dropped so their
    targets are planned again without the lost block, and all remaining
    targets are rebuilt in one :func:`execute_plan` pass.
    Blocks rebuilt in one round are inputs of the next.

    When a round is *stuck* -- nothing planned, nothing lost in flight --
    the run widens :attr:`pending` by every unavailable block a tuple chain
    leads to from what is still pending (:meth:`_grow`, which probes the
    source exactly) and carries on: a block whose every tuple lost a member
    (a punctured parity, a neighbourhood that went down with its locations)
    is reached whenever any path through the lattice survives.  The extra
    blocks are intermediates; :attr:`grew` tells the caller to drop them.

    Iterate :meth:`rounds` to run; between rounds the caller may do anything
    that does not take away blocks the source reported available -- write
    the rebuilt payloads somewhere, account for them, stop early.
    Afterwards :attr:`pending` holds what no surviving path could rebuild,
    :attr:`blocks_read` the *distinct* payloads the run obtained, from the
    source or from an earlier round, so a block feeding several dependent
    repairs is counted once.
    """

    def __init__(
        self,
        lattice: HelicalLattice,
        missing: Iterable[BlockId],
        block_size: int,
        source: "BlockSource",
    ) -> None:
        self._lattice = lattice
        self._block_size = block_size
        self._source = source
        self.pending: Set[BlockId] = set(missing)
        self.blocks_read = 0
        self.grew = False

    def _grow(self, available: AvailabilityProbe) -> bool:
        """Add to ``pending`` the transitive closure of the unavailable tuple
        members of its blocks; ``False`` when there is nothing to add.

        The whole closure at once: one hop per stuck round would re-plan the
        pending set once per link of every chain.  Ids come from the rule
        offsets as in :func:`plan_round`; one outside the lattice (a strand
        start's input, a tail parity's right tuple) is skipped.
        """
        lattice = self._lattice
        size = lattice.size
        s = lattice.params.s
        offsets = rule_offsets(lattice.params)
        pending = self.pending
        before = len(pending)
        # Sorted: the closure is a set and every round sorts it, so the walk
        # order never reaches the output -- a fixed order keeps the probe
        # sequence the source sees reproducible.
        frontier = sorted(filter(lattice.has_block, pending))
        while frontier:
            block_id = frontier.pop()
            index = block_id.index
            row = (index - 1) % s
            if is_data(block_id):
                members = [
                    ParityId(index + shift, strand_class)
                    for strand_class, (inputs, _) in offsets.items()
                    for shift in (0, inputs[row])
                ]
            else:
                strand_class = block_id.strand_class
                inputs, outputs = offsets[strand_class]
                j = index + outputs[row]
                members = [
                    DataId(index),
                    ParityId(index + inputs[row], strand_class),
                    DataId(j),
                    ParityId(j, strand_class),
                ]
            for member in members:
                if (
                    1 <= member.index <= size
                    and member not in pending
                    and not available(member)
                ):
                    pending.add(member)
                    frontier.append(member)
        return len(pending) > before

    def _plan(
        self, missed: Set[BlockId], held: Dict[BlockId, Payload]
    ) -> Tuple[List[RepairPlanStep], List[BlockId]]:
        """One round's plan over every pending block, in lattice order,
        whose inputs not in ``held`` all passed the source's exact check,
        and its inputs (:func:`plan_inputs`); the misses join ``missed``."""
        pending = self.pending
        masks: Optional[_RoundMasks] = None
        plan: Callable[[List[BlockId]], List[RepairPlanStep]]
        if len(pending) >= ARRAY_ROUND_MIN:
            masks = _RoundMasks(self._lattice, pending, list(missed))
            targets = masks.targets
            plan = masks.plan
        else:
            # Lattice ids sort natively in lattice order (``block_sort_key``).
            targets = sorted(pending)

            def free(block_id: BlockId) -> bool:
                return block_id not in pending and block_id not in missed

            plan = partial(plan_round, self._lattice, available=free)

        is_available = self._source.is_available
        steps = plan(targets)
        inputs = plan_inputs(steps)
        fresh = [b for b in inputs if b not in held]
        checked: Set[BlockId] = set()
        while True:
            misses = list(filterfalse(is_available, fresh))
            if not misses:
                break
            checked.update(fresh)
            missed.update(misses)
            if masks is not None:
                masks.block(misses)
            lost = set(misses)
            redo = [step.target for step in steps if step.first in lost or step.second in lost]
            again = {step.target: step for step in plan(redo)}
            dropped = set(redo).difference(again)
            steps = [again.get(step.target, step) for step in steps if step.target not in dropped]
            inputs = plan_inputs(steps)
            fresh = [
                b for b in plan_inputs(again.values()) if b not in held and b not in checked
            ]
        return steps, inputs

    def rounds(self) -> Iterator[Tuple[Dict[BlockId, Payload], int]]:
        """Run the repair; yields ``({target: payload}, newly read blocks)``
        once per round that rebuilt something."""
        fetch_many = self._source.try_get_many
        is_available = self._source.is_available
        pending = self.pending
        # Every payload the run holds: fetched inputs and, once a round is
        # done, its rebuilt targets (which win over a stale fetched copy).
        held: Dict[BlockId, Payload] = {}
        read: Set[BlockId] = set()
        # Blocks the check or the fetch found unavailable.
        missed: Set[BlockId] = set()

        def available(block_id: BlockId) -> bool:
            return block_id in held or (block_id not in missed and is_available(block_id))

        while pending:
            # ``pending`` and ``held`` only learn this round's targets after
            # the XOR pass, so the plan sees the round-start state.
            steps, inputs = self._plan(missed, held)
            wanted = [block_id for block_id in inputs if block_id not in held]
            arrived = True
            if wanted:
                for block_id, payload in zip(wanted, fetch_many(wanted)):
                    if payload is not None:
                        held[block_id] = payload
                        read.add(block_id)
                    else:
                        missed.add(block_id)
                        arrived = False
                if not arrived:
                    steps = [
                        step
                        for step in steps
                        if all(block_id in held for block_id in step.inputs())
                    ]
                    inputs = plan_inputs(steps)
            read.update(inputs)
            new_reads = len(read) - self.blocks_read
            self.blocks_read = len(read)
            if not steps:
                if arrived:
                    if not self._grow(available):
                        return
                    self.grew = True
                continue  # plan again: without the lost inputs, or grown
            recovered = execute_plan(steps, held.__getitem__, self._block_size)
            held.update(recovered)
            missed.difference_update(recovered)
            pending.difference_update(recovered)
            yield recovered, new_reads
