"""Analytic studies: fault tolerance, write performance and reliability.

* :mod:`repro.analysis.erasure_patterns` -- minimal erasure (ME) patterns,
  validation and exact search (Figs. 6 and 7);
* :mod:`repro.analysis.fault_tolerance` -- cross-setting |ME(x)| study
  (Figs. 8 and 9);
* :mod:`repro.analysis.write_performance` -- sealed-bucket write scheduling
  (Fig. 10);
* :mod:`repro.analysis.reliability` -- 5-year reliability of entangled mirror
  arrays (Sec. IV-B1);
* :mod:`repro.analysis.mel` -- Minimal Erasures List and fault-tolerance
  vectors over a generic Tanner-graph model (the Wylie/Greenan methodology
  the paper's Sec. V-A metrics derive from);
* :mod:`repro.analysis.markov` -- analytic Markov-chain reliability models
  (MTTDL, horizon loss probability) cross-checking the Monte-Carlo results;
* :mod:`repro.analysis.repair_cost` -- repair bandwidth / I/O accounting per
  scheme (the byte-level view of Fig. 13 and the single-failure cost rows of
  Table IV).
"""

from repro.analysis.erasure_patterns import (
    ErasurePattern,
    MinimalErasureResult,
    find_minimal_erasure,
    is_irrecoverable,
    is_minimal_erasure,
    minimal_erasure_size,
    minimal_pattern_for_nodes,
    primitive_form_one,
    primitive_form_two,
    recoverable_blocks,
)
from repro.analysis.fault_tolerance import (
    FIGURE8_P_RANGE,
    FIGURE8_SETTINGS,
    MECurve,
    complex_form_catalogue,
    cube_pattern,
    fault_tolerance_report,
    me2_family_size,
    me4_family_size,
    me_curves,
    me_size,
)
from repro.analysis.markov import (
    MarkovModel,
    array_loss_probability,
    five_year_loss_table,
    kofn_chain,
    loss_probability,
    mirrored_pair_chain,
    mttdl,
    raid5_chain,
    raid6_chain,
    single_entanglement_chain,
)
from repro.analysis.mel import (
    FaultToleranceVector,
    MinimalErasure,
    MinimalErasuresList,
    TannerGraph,
    ae_window_flat_code,
    ae_window_graph,
    gf2_rank,
    gf2_solvable,
)
from repro.analysis.reliability import (
    DriveModel,
    ReliabilityResult,
    analytic_mirror_loss,
    five_year_comparison,
    simulate_layout,
)
from repro.analysis.repair_cost import (
    RepairCost,
    SchemeRepairModel,
    disaster_traffic_table,
    repair_model_for,
    single_failure_table,
)
from repro.analysis.write_performance import (
    WritePerformancePoint,
    compare_settings,
    evaluate_setting,
    figure10_comparison,
    full_write_memory,
)

__all__ = [
    "DriveModel",
    "ErasurePattern",
    "FIGURE8_P_RANGE",
    "FIGURE8_SETTINGS",
    "FaultToleranceVector",
    "MECurve",
    "MarkovModel",
    "MinimalErasure",
    "MinimalErasureResult",
    "MinimalErasuresList",
    "ReliabilityResult",
    "RepairCost",
    "SchemeRepairModel",
    "TannerGraph",
    "WritePerformancePoint",
    "ae_window_flat_code",
    "ae_window_graph",
    "analytic_mirror_loss",
    "array_loss_probability",
    "compare_settings",
    "complex_form_catalogue",
    "cube_pattern",
    "disaster_traffic_table",
    "evaluate_setting",
    "fault_tolerance_report",
    "figure10_comparison",
    "find_minimal_erasure",
    "five_year_comparison",
    "five_year_loss_table",
    "full_write_memory",
    "gf2_rank",
    "gf2_solvable",
    "is_irrecoverable",
    "is_minimal_erasure",
    "kofn_chain",
    "loss_probability",
    "me2_family_size",
    "me4_family_size",
    "me_curves",
    "me_size",
    "minimal_erasure_size",
    "minimal_pattern_for_nodes",
    "mirrored_pair_chain",
    "mttdl",
    "primitive_form_one",
    "primitive_form_two",
    "raid5_chain",
    "raid6_chain",
    "recoverable_blocks",
    "repair_model_for",
    "simulate_layout",
    "single_entanglement_chain",
    "single_failure_table",
]
