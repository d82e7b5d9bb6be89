"""Scheme-agnostic discrete-event disaster & churn simulation (paper, Sec. V-C).

The subpackage tracks *availability only* -- exactly like the paper's
table-driven simulation -- which lets the experiments run at the paper's
scale (one million data blocks, 100 locations) in seconds.  The engine
(:mod:`repro.simulation.engine`) simulates any scheme the
:mod:`repro.schemes` registry resolves, and holds the one implementation of
each evaluation job: :func:`replay_timeline` (events to offline sets),
:func:`sample_states` (offline sets to an :class:`EngineRun` of
:class:`StepMetrics`) under ``run_events`` and :class:`ChurnSimulator`, and
:func:`simulate_disasters` (the scheme x disaster sweep) under every Sec. V-C
experiment.  Deciding *when* to change a scheme (Sec. III-B) is an operator's
call on the live service: ``status()``, then ``transition_to``.
"""

from repro.simulation.churn import (
    ChurnConfig,
    ChurnResult,
    ChurnSimulator,
    availability_nines,
    compare_schemes_under_churn,
)
from repro.simulation.engine import (
    AvailabilitySeries,
    EngineOutcome,
    EngineRun,
    LatticeSimulation,
    SimulatedPlacement,
    SimulationEngine,
    SimulationEvent,
    StepMetrics,
    StripeDisasterState,
    StripeSimulation,
    build_simulation,
    normalise_events,
    replay_timeline,
    sample_disaster_locations,
    sample_states,
    simulate_disasters,
)
from repro.simulation.traces import (
    LifetimeModel,
    NodeSession,
    SessionTrace,
    TraceStatistics,
    datacenter_disk_trace,
    exponential_lifetimes,
    p2p_session_trace,
    weibull_lifetimes,
)
from repro.simulation.experiments import (
    AE_SETTINGS,
    DISASTER_FRACTIONS,
    ExperimentConfig,
    REPLICATION_FACTORS,
    RS_SETTINGS,
    costs_table,
    data_loss_experiment,
    placement_balance_report,
    repair_rounds_experiment,
    run_all,
    single_failure_experiment,
    vulnerable_data_experiment,
)
from repro.simulation.metrics import (
    DisasterMetrics,
    PAPER_SCHEMES,
    describe_scheme,
    format_table,
    scheme_costs,
)
from repro.simulation.workload import (
    WorkloadSpec,
    document_bytes,
    mixed_file_sizes,
    payload_stream,
)

__all__ = [
    "AE_SETTINGS",
    "AvailabilitySeries",
    "ChurnConfig",
    "ChurnResult",
    "ChurnSimulator",
    "DISASTER_FRACTIONS",
    "DisasterMetrics",
    "EngineOutcome",
    "EngineRun",
    "ExperimentConfig",
    "LatticeSimulation",
    "LifetimeModel",
    "NodeSession",
    "PAPER_SCHEMES",
    "REPLICATION_FACTORS",
    "RS_SETTINGS",
    "SessionTrace",
    "SimulatedPlacement",
    "SimulationEngine",
    "SimulationEvent",
    "StepMetrics",
    "StripeDisasterState",
    "StripeSimulation",
    "TraceStatistics",
    "WorkloadSpec",
    "availability_nines",
    "build_simulation",
    "compare_schemes_under_churn",
    "costs_table",
    "data_loss_experiment",
    "datacenter_disk_trace",
    "describe_scheme",
    "document_bytes",
    "exponential_lifetimes",
    "format_table",
    "mixed_file_sizes",
    "normalise_events",
    "p2p_session_trace",
    "payload_stream",
    "placement_balance_report",
    "repair_rounds_experiment",
    "replay_timeline",
    "run_all",
    "sample_disaster_locations",
    "sample_states",
    "scheme_costs",
    "simulate_disasters",
    "single_failure_experiment",
    "vulnerable_data_experiment",
    "weibull_lifetimes",
]
