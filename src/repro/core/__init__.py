"""Core implementation of alpha entanglement codes AE(alpha, s, p).

This subpackage contains the paper's primary contribution: the helical
lattice model, the entanglement rules of Tables I and II (tabulated once per
setting by :func:`~repro.core.rules.rule_offsets`), the streaming
encoder, the repair decoder, and the code extensions (sealed-bucket write
scheduling, puncturing, parameter epochs and the anti-tampering analysis).
"""

from repro.core.batch_repair import (
    RepairPlanStep,
    RepairRun,
    execute_plan,
    plan_inputs,
    plan_round,
)
from repro.core.blocks import (
    Block,
    BlockId,
    DataId,
    EncodedBlock,
    ParityId,
    is_data,
    is_parity,
    join_blocks,
    split_into_blocks,
)
from repro.core.buckets import WriteScheduler, WriteScheduleReport, compare_write_parallelism
from repro.core.decoder import Decoder
from repro.core.dynamic import EpochHistory, ParameterEpoch
from repro.core.encoder import (
    BatchEntangler,
    EncodedBatch,
    Entangler,
    encode_file_payloads,
    latest_strand_creators,
)
from repro.core.lattice import DataRepairOption, HelicalLattice, ParityRepairOption
from repro.core.parameters import AEParameters, NodeCategory, StrandClass
from repro.core.position import (
    LatticePosition,
    node_at,
    node_category,
    node_column,
    node_row,
)
from repro.core.puncturing import (
    PuncturedCode,
    PuncturingPolicy,
    masked_parities,
    no_puncturing,
    parity_survivors,
    puncture_periodic,
    puncture_rate,
    puncture_strand_class,
)
from repro.core.rules import input_index, output_index, rule_offsets, rule_table
from repro.core.strands import (
    StrandHeadRegistry,
    StrandId,
    all_strands,
    strand_of,
    strands_of,
    walk_backward,
    walk_forward,
)
from repro.core.tamper import TamperCost, average_tamper_cost, tamper_cost
from repro.core.xor import (
    as_payload,
    as_payload_matrix,
    gather_payload_matrix,
    payload_to_bytes,
    xor_accumulate,
    xor_chain,
    xor_into,
    xor_many,
    xor_pairs,
    xor_payloads,
    zero_payload,
)

__all__ = [
    "AEParameters",
    "BatchEntangler",
    "Block",
    "BlockId",
    "DataId",
    "DataRepairOption",
    "Decoder",
    "EncodedBatch",
    "EncodedBlock",
    "Entangler",
    "EpochHistory",
    "HelicalLattice",
    "LatticePosition",
    "NodeCategory",
    "ParameterEpoch",
    "ParityId",
    "ParityRepairOption",
    "PuncturedCode",
    "PuncturingPolicy",
    "RepairPlanStep",
    "RepairRun",
    "StrandClass",
    "StrandHeadRegistry",
    "StrandId",
    "TamperCost",
    "WriteScheduleReport",
    "WriteScheduler",
    "all_strands",
    "as_payload",
    "as_payload_matrix",
    "average_tamper_cost",
    "compare_write_parallelism",
    "encode_file_payloads",
    "execute_plan",
    "gather_payload_matrix",
    "input_index",
    "is_data",
    "is_parity",
    "join_blocks",
    "latest_strand_creators",
    "masked_parities",
    "no_puncturing",
    "node_at",
    "node_category",
    "node_column",
    "node_row",
    "output_index",
    "parity_survivors",
    "payload_to_bytes",
    "plan_inputs",
    "plan_round",
    "puncture_periodic",
    "puncture_rate",
    "puncture_strand_class",
    "rule_offsets",
    "rule_table",
    "split_into_blocks",
    "strand_of",
    "strands_of",
    "tamper_cost",
    "walk_backward",
    "walk_forward",
    "xor_accumulate",
    "xor_chain",
    "xor_into",
    "xor_many",
    "xor_pairs",
    "xor_payloads",
    "zero_payload",
]
