"""Vectorised round planning for lattice repair.

The sequential :class:`~repro.core.decoder.Decoder` rebuilds one block per
call: fetch the two tuple inputs, XOR them, return.  For a whole repair round
that is thousands of tiny Python round trips over payloads that are already
sitting in memory.  This module splits the round into two phases so the
storage layer and the XOR kernels each see one bulk operation:

* :func:`plan_round` walks the pending blocks and, against a cheap
  availability oracle, picks the same pp-/dp-tuple the decoder would use --
  one :class:`RepairPlanStep` per repairable block, none for blocks no
  surviving tuple can rebuild this round;
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

from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Set,
    Tuple,
)

from repro.core.blocks import BlockId, DataId, ParityId, is_data
from repro.core.lattice import HelicalLattice
from repro.core.rules import rule_offsets
from repro.core.xor import Payload, xor_pairs

if TYPE_CHECKING:  # the protocol is declared with the schemes that read through it
    from repro.schemes.base import BlockSource

__all__ = [
    "RepairPlanStep",
    "RepairRun",
    "block_sort_key",
    "execute_plan",
    "plan_inputs",
    "plan_round",
]

#: Availability oracle: ``True`` when the block's payload can be produced
#: without repairing it (it is stored, or an earlier round rebuilt it).
AvailabilityProbe = Callable[[BlockId], bool]


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
    """Plan one repair round over ``pending`` blocks.

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


class _Availability(Dict[BlockId, bool]):
    """Memoised availability: the planner probes a block many times per run
    (once per neighbour that could use it), so hits must cost a dict lookup
    and only the first probe of a block reaches the caller's oracle."""

    def __init__(self, probe: AvailabilityProbe) -> None:
        super().__init__()
        self._probe = probe

    def __missing__(self, block_id: BlockId) -> bool:
        answer = self[block_id] = bool(self._probe(block_id))
        return answer


class RepairRun:
    """Round-based lattice repair of a set of missing blocks, in bulk.

    Every round is planned against the availability known when it starts
    (:func:`plan_round` picks the same pp-/dp-tuples the per-block decoder
    would) -- ``source.is_available`` answers the planner without moving
    payload bytes -- the plan's not-yet-held inputs arrive through one
    ``source.try_get_many`` call, steps whose inputs did not arrive (a
    location dying between the plan and the fetch, or a store un-holding a
    record of the wrong length) are dropped so their targets are planned
    again without the lost block, and all remaining targets are rebuilt in
    one :func:`execute_plan` pass.
    Blocks rebuilt in one round are inputs of the next.

    When a round is *stuck* -- nothing planned, nothing lost in flight --
    the run widens :attr:`pending` by every unavailable block a tuple chain
    leads to from what is still pending (:meth:`_grow`) and carries on: a
    block whose every tuple lost a member (a punctured parity, a
    neighbourhood that went down with its locations) is reached whenever any
    path through the lattice survives.  The extra blocks are intermediates;
    :attr:`grew` tells the caller to drop them.

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

    def rounds(self) -> Iterator[Tuple[Dict[BlockId, Payload], int]]:
        """Run the repair; yields ``({target: payload}, newly read blocks)``
        once per round that rebuilt something."""
        fetch_many = self._source.try_get_many
        pending = self.pending
        # Every payload the run holds: fetched inputs and, once a round is
        # done, its rebuilt targets (which win over a stale fetched copy).
        held: Dict[BlockId, Payload] = {}
        read: Set[BlockId] = set()
        available = _Availability(self._source.is_available)
        while pending:
            # ``available`` and ``held`` only learn this round's targets
            # after the XOR pass, so the plan sees the round-start state.
            # Lattice ids sort natively in lattice order (``block_sort_key``).
            steps = plan_round(self._lattice, sorted(pending), available.__getitem__)
            inputs = plan_inputs(steps)
            wanted = [block_id for block_id in inputs if block_id not in held]
            arrived = True
            if wanted:
                for block_id, payload in zip(wanted, fetch_many(wanted)):
                    if payload is not None:
                        held[block_id] = payload
                        read.add(block_id)
                    else:
                        available[block_id] = arrived = False
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
                    if not self._grow(available.__getitem__):
                        return
                    self.grew = True
                continue  # plan again: without the lost inputs, or grown
            recovered = execute_plan(steps, held.__getitem__, self._block_size)
            held.update(recovered)
            available.update(dict.fromkeys(recovered, True))
            pending.difference_update(recovered)
            yield recovered, new_reads
