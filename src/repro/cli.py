"""Command line entry point: ``repro-experiments``.

Runs the paper's experiments, and drives the scheme-agnostic storage service
through three subcommands that all take ``--scheme`` (any identifier the
:mod:`repro.schemes` registry resolves: ``ae-3-2-5``, ``rs-10-4``,
``lrc-azure``, ``rep-3``, ``xor-geo``, ...)::

    repro-experiments --list
    repro-experiments fig11 --blocks 200000
    repro-experiments all --paper-scale
    repro-experiments ingest archive.tar --scheme rs-10-4 --verify
    repro-experiments ingest archive.tar --workers 4 --verify
    repro-experiments repair --scheme lrc-azure --fail 4
    repro-experiments compare --schemes ae-3-2-5,rs-10-4,rep-3
    repro-experiments compare --smoke
    repro-experiments simulate --schemes ae-3-2-5,lrc-azure,xor-geo --disaster 0.3
    repro-experiments simulate --churn trace.json --policy minimal
    repro-experiments simulate --smoke
    repro-experiments load --clients 8 --duration 5
    repro-experiments load --clients 8 --ops 50 --think-ms 1

Every experiment id names the table or figure of the paper it regenerates
(e.g. ``fig10`` is the write-performance comparison of Fig. 10, ``table4``
the repair-cost table of Table IV).  ``ingest`` pushes a file through the
batched :meth:`StorageService.put_stream` path and reports write throughput
(``--workers N`` fans the chunks out as part documents over the concurrent
front-end); ``repair`` injects a location disaster and repairs it;
``compare`` runs the same workload and failure trace across schemes and
prints measured storage overhead and repair reads next to the analytic
Table IV numbers; ``simulate`` runs the scheme-agnostic discrete-event
disaster/churn engine over any registered schemes at any disaster sizes;
``load`` drives the concurrent front-end with a closed-loop multi-client
workload and reports ops/sec and latency percentiles.
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from typing import TYPE_CHECKING, Callable, Dict, Iterator, List, Optional, Union

if TYPE_CHECKING:
    from repro.storage.topology import Topology
    from repro.system.service import StorageConfig
    from repro.system.transitions import TransitionReport

from repro.analysis.fault_tolerance import complex_form_catalogue, me_curves
from repro.analysis.markov import five_year_loss_table
from repro.analysis.reliability import five_year_comparison
from repro.analysis.repair_cost import single_failure_table
from repro.analysis.write_performance import figure10_comparison
from repro.core.parameters import AEParameters
from repro.simulation.churn import ChurnConfig, compare_schemes_under_churn
from repro.simulation.traces import p2p_session_trace
from repro.simulation.experiments import (
    ExperimentConfig,
    costs_table,
    data_loss_experiment,
    placement_balance_report,
    repair_rounds_experiment,
    single_failure_experiment,
    vulnerable_data_experiment,
)
from repro.simulation.metrics import format_table


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    if args.paper_scale:
        return ExperimentConfig.paper_scale()
    return ExperimentConfig.quick(args.blocks)


def _run_fig8(args: argparse.Namespace) -> str:
    curves = me_curves(2, method=args.method)
    rows = [row for curve in curves for row in curve.as_rows()]
    return format_table(rows)


def _run_fig9(args: argparse.Namespace) -> str:
    curves = me_curves(4, method=args.method)
    rows = [row for curve in curves for row in curve.as_rows()]
    return format_table(rows)


def _run_fig6_7(args: argparse.Namespace) -> str:
    return format_table(complex_form_catalogue(method=args.method))


def _run_fig10(args: argparse.Namespace) -> str:
    return format_table([point.as_row() for point in figure10_comparison()])


def _run_fig11(args: argparse.Namespace) -> str:
    return format_table(data_loss_experiment(_config_from_args(args)))


def _run_fig12(args: argparse.Namespace) -> str:
    return format_table(vulnerable_data_experiment(_config_from_args(args)))


def _run_fig13(args: argparse.Namespace) -> str:
    return format_table(single_failure_experiment(_config_from_args(args)))


def _run_table4(args: argparse.Namespace) -> str:
    return format_table(costs_table())


def _run_table6(args: argparse.Namespace) -> str:
    return format_table(repair_rounds_experiment(_config_from_args(args)))


def _run_placement(args: argparse.Namespace) -> str:
    return format_table(placement_balance_report(_config_from_args(args)))


def _run_reliability(args: argparse.Namespace) -> str:
    results = five_year_comparison(trials=args.trials)
    rows = [
        {
            "layout": result.layout,
            "drives": result.drives,
            "loss probability (5y)": round(result.loss_probability, 4),
        }
        for result in results.values()
    ]
    return format_table(rows)


def _run_repair_cost(args: argparse.Namespace) -> str:
    from repro.simulation.metrics import PAPER_SCHEMES

    return format_table(single_failure_table(PAPER_SCHEMES, block_size=4096))


def _run_markov(args: argparse.Namespace) -> str:
    return format_table(five_year_loss_table())


def _run_churn(args: argparse.Namespace) -> str:
    trace = p2p_session_trace(
        40, 240.0, mean_session_hours=18.0, mean_downtime_hours=6.0, seed=17
    )
    schemes = [
        AEParameters.single(),
        AEParameters.double(2, 5),
        AEParameters.triple(2, 5),
        "rs-8-2",
        "rs-5-5",
        "rep-2",
        "rep-3",
    ]
    config = ChurnConfig(data_blocks=min(args.blocks, 20_000), sample_every_hours=12.0)
    return format_table(compare_schemes_under_churn(trace, schemes, config))


EXPERIMENTS: Dict[str, Callable[[argparse.Namespace], str]] = {
    "fig6-7": _run_fig6_7,
    "fig8": _run_fig8,
    "fig9": _run_fig9,
    "fig10": _run_fig10,
    "fig11": _run_fig11,
    "fig12": _run_fig12,
    "fig13": _run_fig13,
    "table4": _run_table4,
    "table6": _run_table6,
    "placement": _run_placement,
    "reliability": _run_reliability,
    "repair-cost": _run_repair_cost,
    "markov": _run_markov,
    "churn": _run_churn,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Regenerate the tables and figures of the Alpha Entanglement Codes "
            "paper (DSN 2018), or run 'ingest' to push a file through the "
            "batched entanglement pipeline."
        ),
    )
    parser.add_argument(
        "experiment",
        nargs="?",
        default="all",
        help=(
            "experiment id ('fig6-7'..'fig13' for the paper's figures, "
            "'table4'/'table6' for its tables, 'placement', 'reliability', "
            "'repair-cost', 'markov', 'churn'), a subcommand ('ingest', "
            "'repair', 'compare', 'simulate', 'load'), or 'all'"
        ),
    )
    parser.add_argument("--list", action="store_true", help="list available experiments")
    parser.add_argument(
        "--blocks",
        type=int,
        default=100_000,
        help=(
            "number of 4 KiB data blocks for the disaster simulations of "
            "Figs. 11-13 (default 100,000; the paper uses 1,000,000)"
        ),
    )
    parser.add_argument(
        "--paper-scale",
        action="store_true",
        help="use the paper's full scale (1,000,000 data blocks, Sec. V-C)",
    )
    parser.add_argument(
        "--method",
        choices=["search", "family"],
        default="search",
        help=(
            "minimal-erasure computation for fig6-7/fig8/fig9: exhaustive "
            "'search' or the closed-form 'family' catalogue (paper, Sec. V-A)"
        ),
    )
    parser.add_argument(
        "--trials",
        type=int,
        default=1000,
        help="Monte-Carlo trials (5-year disk traces) for the reliability run",
    )
    return parser


def _add_service_arguments(
    parser: argparse.ArgumentParser,
    *,
    locations: int,
    block_size: int = 1024,
    seed: Optional[int] = 7,
    scheme: bool = True,
    topology: bool = True,
) -> None:
    """The options every service-opening subcommand shares.

    ``locations`` / ``block_size`` / ``seed`` are the subcommand's defaults
    (``seed=None``: no ``--seed`` flag, placement seed 0); ``scheme=False``
    leaves out ``--scheme`` and ``topology=False`` ``--topology`` /
    ``--placement``.  Parse with :func:`_parse_service_arguments`, build the
    config with :func:`_service_config`.
    """
    from repro.schemes import DEFAULT_SCHEME
    from repro.storage import backends
    from repro.storage import placement as placement_registry

    if scheme:
        parser.add_argument(
            "--scheme",
            default=DEFAULT_SCHEME,
            help=(
                "redundancy scheme id from the repro.schemes registry "
                f"(default {DEFAULT_SCHEME}); e.g. ae-3-2-5, rs-10-4, lrc-azure, "
                "lrc-xorbas, rep-3, xor-geo, xor-raid5-5 (see docs/schemes.md)"
            ),
        )
    parser.add_argument(
        "--block-size",
        type=int,
        default=block_size,
        help=f"data/redundancy block size in bytes (default {block_size})",
    )
    parser.add_argument(
        "--locations",
        type=int,
        default=locations,
        help=f"storage locations in the simulated cluster (default {locations})",
    )
    if seed is None:
        parser.set_defaults(seed=0)
    else:
        parser.add_argument(
            "--seed", type=int, default=seed, help=f"workload seed (default {seed})"
        )
    parser.add_argument(
        "--shards",
        type=int,
        default=1,
        metavar="M",
        help=(
            "shard the document namespace across M independent services "
            "joined by a consistent-hash ring (default 1: a single service; "
            "see docs/sharding.md)"
        ),
    )
    parser.add_argument(
        "--backend",
        default="memory",
        choices=backends.available(),
        help=(
            "storage backend for the block payloads (default 'memory'; "
            "'disk' and 'segment' persist under --data-dir, see "
            "docs/persistence.md)"
        ),
    )
    parser.add_argument(
        "--data-dir",
        default=None,
        metavar="DIR",
        help=(
            "root directory for persistent backends; reopening a directory "
            "that already holds a service manifest restores its documents"
        ),
    )
    parser.add_argument(
        "--fsync",
        action="store_true",
        help="fsync every durable write (power-loss safety at a latency cost)",
    )
    if not topology:
        parser.set_defaults(topology=None, placement=None)
        return
    parser.add_argument(
        "--topology",
        default=None,
        metavar="SPEC",
        help=(
            "cluster topology: a compact spec like 'sites=3,racks=2,nodes=4', "
            "a topology JSON file, or a bare location count (overrides "
            "--locations; see docs/topology.md)"
        ),
    )
    parser.add_argument(
        "--placement",
        default=None,
        choices=placement_registry.available(),
        help=(
            "placement policy from the repro.storage.placement registry "
            "(default: the scheme's own; 'spread-domains' never co-locates "
            "a repair group inside one failure domain)"
        ),
    )


def _parse_service_arguments(
    parser: argparse.ArgumentParser, argv: List[str] | None
) -> argparse.Namespace:
    """Parse, then validate what :func:`_add_service_arguments` added;
    ``args.topology`` comes back resolved (a ``Topology`` or ``None``)."""
    args = parser.parse_args(argv)
    if args.shards < 1:
        parser.error("--shards must be at least 1")
    if args.backend != "memory" and args.data_dir is None:
        parser.error(f"--backend {args.backend} requires --data-dir")
    args.topology = _resolve_topology_argument(parser, args)
    return args


def _service_config(args: argparse.Namespace) -> "StorageConfig":
    """The :class:`StorageConfig` the shared service options describe."""
    from repro.system.service import StorageConfig

    return StorageConfig(
        scheme=args.scheme,
        block_size=args.block_size,
        seed=args.seed,
        backend=args.backend,
        data_dir=args.data_dir,
        fsync=args.fsync,
        topology=args.topology if args.topology is not None else args.locations,
        placement=args.placement,
        shards=args.shards,
    )


def _resolve_topology_argument(
    parser: argparse.ArgumentParser, args: argparse.Namespace
) -> Optional["Topology"]:
    """Resolve ``--topology`` early so a bad spec or missing JSON file is a
    clean parser error instead of a traceback from deep inside open()."""
    if args.topology is None:
        return None
    from repro.exceptions import ReproError
    from repro.storage.topology import Topology

    try:
        return Topology.resolve(args.topology)
    except (ReproError, OSError) as exc:
        parser.error(f"cannot resolve --topology {args.topology!r}: {exc}")


def _add_fail_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--fail",
        default="3",
        help=(
            "locations to fail: a count (default 3) or a topology target "
            "like 'site:0' / 'rack:0/1' (needs --topology); with --shards "
            "the same locations fail on every shard"
        ),
    )


def _parse_fail(
    parser: argparse.ArgumentParser, args: argparse.Namespace
) -> Union[int, str]:
    """``--fail`` is a location count or a topology target (site:0)."""
    cleaned = args.fail.strip()
    if ":" in cleaned:
        if args.topology is None:
            parser.error(f"--fail {cleaned!r} targets a topology domain; add --topology")
        return cleaned
    try:
        return int(cleaned)
    except ValueError:
        parser.error(
            f"--fail expects a location count or a topology target like "
            f"'site:0', not {args.fail!r}"
        )


def build_ingest_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments ingest",
        description=(
            "Push a file through the batched ingest pipeline "
            "(StorageService.put_stream) under any redundancy scheme and "
            "report write throughput."
        ),
    )
    parser.add_argument("path", help="file to ingest, or '-' to read standard input")
    parser.add_argument(
        "--spec",
        default=None,
        help=(
            "legacy AE setting AE(alpha,s,p); overrides --scheme with the "
            "matching entanglement scheme"
        ),
    )
    parser.add_argument(
        "--batch-blocks",
        type=int,
        default=256,
        help="blocks encoded per vectorised batch (default 256, i.e. 1 MiB at 4 KiB blocks)",
    )
    parser.add_argument(
        "--chunk-size",
        type=int,
        default=1 << 20,
        help="bytes read from the input per chunk (default 1 MiB)",
    )
    parser.add_argument(
        "--verify",
        action="store_true",
        help="stream the document back (get_stream) and check it byte-exact",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help=(
            "concurrent ingest workers (default 1: the single-threaded "
            "put_stream path); with N > 1 every chunk becomes a part "
            "document put from one of N threads through the front-end"
        ),
    )
    _add_service_arguments(parser, locations=100, block_size=4096, seed=None)
    return parser


def build_repair_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments repair",
        description=(
            "Write a synthetic workload under any redundancy scheme, fail "
            "storage locations, run the scheme's live repair path and verify "
            "the document byte-exact."
        ),
    )
    parser.add_argument(
        "--blocks", type=int, default=120, help="data blocks to write (default 120)"
    )
    _add_fail_argument(parser)
    _add_service_arguments(parser, locations=40)
    return parser


def build_compare_parser() -> argparse.ArgumentParser:
    from repro.system.compare import DEFAULT_COMPARE_SCHEMES

    parser = argparse.ArgumentParser(
        prog="repro-experiments compare",
        description=(
            "Run the same workload and failure trace across redundancy "
            "schemes and print measured storage overhead and repair reads "
            "next to the analytic Table IV numbers."
        ),
    )
    parser.add_argument(
        "--schemes",
        default=",".join(DEFAULT_COMPARE_SCHEMES),
        help="comma-separated scheme ids (default: the paper's comparison set)",
    )
    parser.add_argument(
        "--blocks",
        type=int,
        default=240,
        help="data blocks per workload (default 240, a multiple of every default stripe width)",
    )
    _add_fail_argument(parser)
    parser.add_argument(
        "--victims",
        type=int,
        default=3,
        help="data blocks probed for the measured single-failure repair cost (default 3)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny fast configuration for CI (60 blocks of 512 bytes, 30 locations)",
    )
    _add_service_arguments(parser, locations=60, scheme=False)
    return parser


def build_simulate_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments simulate",
        description=(
            "Run the scheme-agnostic discrete-event disaster & churn "
            "simulation engine: disaster-recovery metrics (data loss, "
            "vulnerable data, repair rounds, single-failure fraction) for "
            "any registered schemes at any disaster sizes, plus optional "
            "churn-trace replay."
        ),
    )
    parser.add_argument(
        "--schemes",
        default="ae-3-2-5,rs-10-4,rep-3,lrc-azure,lrc-xorbas,xor-geo",
        help=(
            "comma-separated scheme ids from the repro.schemes registry "
            "(default covers the paper's families plus LRC and flat XOR)"
        ),
    )
    parser.add_argument(
        "--disaster",
        default="0.1,0.2,0.3,0.4,0.5",
        help=(
            "comma-separated disaster sizes: fractions in [0, 1] (default: "
            "the paper's 10%%-50%% range) and/or topology targets like "
            "'site:0' or 'rack:0/1' (targets need --topology)"
        ),
    )
    parser.add_argument(
        "--topology",
        default=None,
        metavar="SPEC",
        help=(
            "cluster topology ('sites=3,racks=2,nodes=4', a topology JSON "
            "file or a location count); overrides --locations and enables "
            "site/rack-targeted disasters"
        ),
    )
    parser.add_argument(
        "--blocks",
        type=int,
        default=20_000,
        help="data blocks per scheme (default 20,000; the paper uses 1,000,000)",
    )
    parser.add_argument(
        "--locations",
        type=int,
        default=100,
        help="storage locations (default 100, the paper's setup)",
    )
    parser.add_argument("--seed", type=int, default=7, help="placement/disaster seed (default 7)")
    parser.add_argument(
        "--policy",
        choices=["full", "minimal", "none"],
        default="full",
        help=(
            "maintenance policy: 'full' repairs data and redundancy, "
            "'minimal' repairs data only (the Fig. 12 regime), 'none' "
            "measures raw exposure"
        ),
    )
    parser.add_argument(
        "--max-repairs-per-round",
        type=int,
        default=None,
        help="optional MaintenanceBudget cap on blocks repaired per round",
    )
    parser.add_argument(
        "--churn",
        default=None,
        metavar="TRACE.json",
        help=(
            "replay a ChurnTrace JSON file (ChurnTrace.save format) through "
            "the event loop and print per-scheme availability"
        ),
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny fast configuration for CI (2,000 blocks, 40 locations)",
    )
    return parser


def build_load_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments load",
        description=(
            "Drive the concurrent front-end with a closed-loop "
            "multi-client mixed put/get/delete workload and report ops/sec "
            "and latency percentiles (see docs/architecture.md)."
        ),
    )
    parser.add_argument(
        "--clients",
        type=int,
        default=8,
        help="closed-loop client threads (default 8)",
    )
    parser.add_argument(
        "--duration",
        type=float,
        default=None,
        metavar="SECONDS",
        help="run wall-clock bounded for this many seconds (default 5)",
    )
    parser.add_argument(
        "--ops",
        type=int,
        default=None,
        help="run exactly this many operations per client instead of --duration",
    )
    parser.add_argument(
        "--think-ms",
        type=float,
        default=0.0,
        help="per-client think time between operations in milliseconds (default 0)",
    )
    parser.add_argument(
        "--payload-bytes",
        type=int,
        default=4096,
        help="document payload size in bytes (default 4096)",
    )
    parser.add_argument(
        "--documents",
        type=int,
        default=64,
        help="shared document name pool size (default 64; clients overlap)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="concurrent callers the front-end is sized for (default: the client count)",
    )
    parser.add_argument(
        "--queue-depth",
        type=int,
        default=None,
        help="bound on requests in flight (default: workers x 4); overflow bounces",
    )
    _add_service_arguments(parser, locations=40, seed=0)
    return parser


def load_main(argv: List[str] | None = None) -> int:
    """Entry point of ``repro-experiments load``."""
    from repro.exceptions import ReproError
    from repro.system.loadgen import run_load
    from repro.system.opening import open_service

    parser = build_load_parser()
    args = _parse_service_arguments(parser, argv)
    if args.clients < 1:
        parser.error("--clients must be at least 1")
    if args.ops is not None and args.duration is not None:
        parser.error("pass --ops or --duration, not both")
    if args.ops is None and args.duration is None:
        args.duration = 5.0
    workers = args.workers if args.workers is not None else args.clients
    try:
        service = open_service(
            _service_config(args), workers=workers, queue_depth=args.queue_depth
        )
        report = run_load(
            service,
            clients=args.clients,
            ops_per_client=args.ops,
            duration_seconds=args.duration,
            payload_bytes=args.payload_bytes,
            documents=args.documents,
            think_seconds=args.think_ms / 1000.0,
            seed=args.seed,
        )
    except (ReproError, ValueError) as exc:
        parser.error(str(exc))
    print(f"scheme       : {service.scheme.scheme_id}")
    print(f"backend      : {args.backend}")
    if args.topology is not None:
        print(f"topology     : {service.topology.describe()}")
    print(f"front-end    : {service!r}")
    print(
        f"workload     : {report.clients} clients, {args.payload_bytes} B "
        f"payloads over {args.documents} names, think {args.think_ms:.1f} ms"
    )
    print(
        f"operations   : {report.ops} ({report.puts} puts, {report.gets} gets, "
        f"{report.deletes} deletes; {report.misses} misses, "
        f"{report.overloads} overloads)"
    )
    print(
        f"throughput   : {report.ops_per_sec:.0f} ops/s over "
        f"{report.duration_seconds:.2f} s"
    )
    print(
        f"latency      : p50 {report.p50_seconds * 1e3:.2f} ms, "
        f"p99 {report.p99_seconds * 1e3:.2f} ms, "
        f"mean {report.mean_seconds * 1e3:.2f} ms"
    )
    service.close()
    if args.data_dir is not None:
        print(f"persisted    : {args.data_dir}")
    return 0


def simulate_main(argv: List[str] | None = None) -> int:
    """Entry point of ``repro-experiments simulate``."""
    from repro.exceptions import ReproError
    from repro.simulation.engine import SimulationEngine, simulate_disasters
    from repro.storage.failures import ChurnTrace
    from repro.storage.maintenance import MaintenanceBudget, MaintenancePolicy

    parser = build_simulate_parser()
    args = parser.parse_args(argv)
    if args.smoke:
        args.blocks = 2_000
        if args.topology is None:
            args.locations = 40
        if args.disaster == parser.get_default("disaster"):
            args.disaster = "0.1,0.3,0.5"
    scheme_ids = [scheme.strip() for scheme in args.schemes.split(",") if scheme.strip()]
    if not scheme_ids:
        parser.error("--schemes must name at least one scheme")
    fractions: List[object] = []
    for part in args.disaster.split(","):
        part = part.strip()
        if not part:
            continue
        if ":" in part:
            if args.topology is None:
                parser.error(f"disaster target {part!r} needs --topology")
            fractions.append(part)
            continue
        try:
            fractions.append(float(part))
        except ValueError as exc:
            parser.error(f"cannot parse --disaster fractions: {exc}")
    policy = MaintenancePolicy(args.policy)
    budget = (
        MaintenanceBudget(max_repairs_per_round=args.max_repairs_per_round)
        if args.max_repairs_per_round is not None
        else None
    )
    topology = _resolve_topology_argument(parser, args)
    if topology is not None:
        args.locations = topology.node_count
    try:
        results = simulate_disasters(
            scheme_ids,
            data_blocks=args.blocks,
            location_count=args.locations,
            seed=args.seed,
            fractions=fractions,
            policy=policy,
            budget=budget,
            topology=topology,
        )
    except (ReproError, ValueError) as exc:
        parser.error(str(exc))
    print(f"policy       : {policy.value} ({policy.describe()})")
    if topology is not None:
        print(f"topology     : {topology.describe()}")
    print(f"placement    : {args.blocks} data blocks over {args.locations} locations")
    print(format_table([metrics.as_row() for metrics in results]))
    if args.churn is not None:
        try:
            trace = ChurnTrace.load(args.churn)
        except OSError as exc:
            parser.error(f"cannot read {args.churn!r}: {exc.strerror or exc}")
        except ReproError as exc:
            parser.error(str(exc))
        runs = []
        try:
            for scheme_id in scheme_ids:
                engine = SimulationEngine(
                    scheme_id, args.blocks, args.locations, args.seed,
                    policy=policy, budget=budget, topology=topology,
                )
                runs.append(engine.run_events(trace))
        except ReproError as exc:
            parser.error(str(exc))
        print()
        print(f"churn replay : {args.churn} ({len(trace.events)} events)")
        print(format_table([run.as_row() for run in runs]))
    return 0


def _read_chunks(path: str, chunk_size: int) -> Iterator[bytes]:
    if path == "-":
        stream = sys.stdin.buffer
        while True:
            chunk = stream.read(chunk_size)
            if not chunk:
                return
            yield chunk
    else:
        with open(path, "rb") as stream:
            while True:
                chunk = stream.read(chunk_size)
                if not chunk:
                    return
                yield chunk


def ingest_main(argv: List[str] | None = None) -> int:
    """Entry point of ``repro-experiments ingest``."""
    from concurrent.futures import Future, ThreadPoolExecutor

    from repro.exceptions import ReproError
    from repro.system.opening import open_service
    from repro.system.service import StoredDocument

    parser = build_ingest_parser()
    args = _parse_service_arguments(parser, argv)
    if args.chunk_size < 1:
        parser.error("--chunk-size must be at least 1 byte")
    if args.workers < 1:
        parser.error("--workers must be at least 1")
    fan_out = args.workers > 1
    try:
        if args.spec is not None:
            args.scheme = AEParameters.parse(args.spec).scheme_id
        service = open_service(
            _service_config(args),
            workers=args.workers if fan_out else None,
            batch_blocks=args.batch_blocks,
        )
        started = time.perf_counter()
        if fan_out:
            # Fan the chunks out as part documents from N client threads
            # through the concurrent front-end (per shard when sharded: part
            # names spread over the ring); the bounded window of in-flight
            # puts bounds the chunks held in memory.
            parts: List[StoredDocument] = []
            futures: List["Future[StoredDocument]"] = []
            with ThreadPoolExecutor(max_workers=args.workers) as clients:
                for chunk in _read_chunks(args.path, args.chunk_size):
                    if len(futures) >= args.workers * 2:
                        parts.append(futures.pop(0).result())
                    name = f"ingest/part-{len(parts) + len(futures):05d}"
                    futures.append(clients.submit(service.put, name, chunk))
                parts.extend(future.result() for future in futures)
            names = [part.name for part in parts]
            length = sum(part.length for part in parts)
            block_count = sum(part.block_count for part in parts)
        else:
            document = service.put_stream(
                "ingest", _read_chunks(args.path, args.chunk_size)
            )
            length, block_count = document.length, document.block_count
    except (ReproError, ValueError) as exc:
        parser.error(str(exc))
    except OSError as exc:
        parser.error(f"cannot read {args.path!r}: {exc.strerror or exc}")
    elapsed = time.perf_counter() - started
    throughput = length / elapsed / 1e6 if elapsed > 0 else float("inf")
    redundancy = service.status().blocks - block_count
    print(f"code setting : {service.capabilities.name}")
    print(f"scheme       : {service.scheme.scheme_id}")
    print(f"backend      : {args.backend}")
    print(f"shards       : {args.shards}")
    if args.topology is not None:
        print(f"topology     : {service.topology.describe()}")
    if args.placement is not None:
        placement = service.service_for("ingest").cluster.placement
        print(f"placement    : {placement.describe()}")
    if fan_out:
        print(f"workers      : {args.workers} ({len(names)} part documents)")
    print(f"ingested     : {length} bytes in {block_count} blocks")
    print(f"redundancy   : {redundancy} blocks")
    print(f"elapsed      : {elapsed:.3f} s")
    print(f"throughput   : {throughput:.1f} MB/s")
    exit_code = 0
    if args.verify:
        if fan_out:
            read_back = b"".join(service.get(name) for name in names)
        else:
            read_back = b"".join(service.get_stream("ingest"))
        if len(read_back) != length:
            print("verify       : FAILED (length mismatch)")
            exit_code = 1
        elif args.path == "-":
            print("verify       : OK (length match; stdin content not re-readable)")
        else:
            with open(args.path, "rb") as stream:
                original = stream.read()
            if read_back != original:
                print("verify       : FAILED (content mismatch)")
                exit_code = 1
            else:
                print("verify       : OK (byte-exact round trip)")
    service.close()
    if args.data_dir is not None:
        print(f"persisted    : {args.data_dir} (reopen with the same --scheme/--backend)")
    return exit_code


def repair_main(argv: List[str] | None = None) -> int:
    """Entry point of ``repro-experiments repair``."""
    from repro.exceptions import ReproError
    from repro.system.opening import open_service

    parser = build_repair_parser()
    args = _parse_service_arguments(parser, argv)
    fail = _parse_fail(parser, args)
    rng = random.Random(args.seed)
    payload = rng.randbytes(args.blocks * args.block_size)
    try:
        service = open_service(_service_config(args))
        topology = service.topology
        if isinstance(fail, str):
            failed = sorted(topology.locations_for_target(fail))
        else:
            if not 0 <= fail <= topology.node_count:
                parser.error("--fail must lie between 0 and the location count")
            failed = rng.sample(range(topology.node_count), fail)
        service.put("workload", payload)
        # On a federation the same location ids go down on every shard; each
        # shard repairs its own disaster independently.
        service.fail_locations(failed)
        report = service.repair()
    except (ReproError, ValueError) as exc:
        parser.error(str(exc))
    print(f"code setting : {service.capabilities.name}")
    print(f"scheme       : {service.scheme.scheme_id}")
    print(f"shards       : {args.shards}")
    if args.topology is not None:
        print(f"topology     : {topology.describe()}")
    if args.placement is not None:
        placement = service.service_for("workload").cluster.placement
        print(f"placement    : {placement.describe()}")
    label = f" ({fail})" if isinstance(fail, str) else ""
    print(f"failed       : locations {sorted(failed)}{label}")
    print(f"repair       : {report.summary()}")
    try:
        intact = service.get("workload") == payload
    except ReproError:
        intact = False
    print(f"verify       : {'OK (byte-exact round trip)' if intact else 'FAILED (data loss)'}")
    service.restore_locations()
    service.close()
    if args.data_dir is not None:
        print(f"persisted    : {args.data_dir}")
    return 0 if intact else 1


def compare_main(argv: List[str] | None = None) -> int:
    """Entry point of ``repro-experiments compare``."""
    from repro.exceptions import ReproError
    from repro.simulation.metrics import format_table
    from repro.system.compare import compare_schemes

    parser = build_compare_parser()
    args = _parse_service_arguments(parser, argv)
    if args.smoke:
        args.blocks, args.block_size = 60, 512
        args.victims = 2
        if args.topology is None:
            args.locations = 30
        if args.fail == parser.get_default("fail"):
            args.fail = "2"
    fail = _parse_fail(parser, args)
    scheme_ids = [scheme.strip() for scheme in args.schemes.split(",") if scheme.strip()]
    if not scheme_ids:
        parser.error("--schemes must name at least one scheme")
    try:
        results = compare_schemes(
            scheme_ids,
            data_blocks=args.blocks,
            block_size=args.block_size,
            topology=args.topology if args.topology is not None else args.locations,
            fail_locations=fail if isinstance(fail, int) else 0,
            seed=args.seed,
            victims=args.victims,
            backend=args.backend,
            data_dir=args.data_dir,
            fsync=args.fsync,
            placement=args.placement,
            fail_target=fail if isinstance(fail, str) else None,
            shards=args.shards,
        )
    except (ReproError, ValueError) as exc:
        parser.error(str(exc))
    print(format_table([result.as_row() for result in results]))
    mismatched = [r.scheme_id for r in results if not r.reads_match_analytic]
    if mismatched:
        print(f"measured single-failure reads DIVERGE from Table IV for: {mismatched}")
        return 1
    print("measured single-failure reads match the analytic Table IV costs")
    return 0


def build_transition_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments transition",
        description=(
            "Write documents under one redundancy scheme, then migrate the "
            "live service through a chain of schemes (alpha raises, "
            "puncturing, cross-family re-encodes) verifying every document "
            "byte-exact after each hop."
        ),
    )
    parser.add_argument(
        "--to",
        default="ae-3-2-5,rs-10-4",
        help=(
            "comma-separated chain of target scheme ids, applied in order "
            "(default 'ae-3-2-5,rs-10-4': re-encode into the lattice, then "
            "into Reed-Solomon)"
        ),
    )
    parser.add_argument(
        "--docs", type=int, default=6, help="documents to write (default 6)"
    )
    parser.add_argument(
        "--doc-size",
        type=int,
        default=8192,
        help="bytes per document (default 8192)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=2,
        help=(
            "concurrent callers (default 2, per shard with --shards); the "
            "transition runs behind the front-end's writer-preferring "
            "maintenance lock while reads keep streaming"
        ),
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI-sized run: 4 small documents through the default chain",
    )
    _add_service_arguments(parser, locations=40, topology=False)
    return parser


def _hop_summary(target: str, outcome: Optional["TransitionReport"]) -> str:
    """One ``transition_to`` hop in words: the report's own summary (a
    federation's sums its shards')."""
    return outcome.summary() if outcome is not None else f"-> {target}: no-op"


def transition_main(argv: List[str] | None = None) -> int:
    """Entry point of ``repro-experiments transition``."""
    from repro.exceptions import ReproError
    from repro.system.opening import open_service

    parser = build_transition_parser()
    args = _parse_service_arguments(parser, argv)
    if args.smoke:
        args.docs, args.doc_size, args.block_size, args.locations = 4, 4096, 512, 24
    targets = [target.strip() for target in args.to.split(",") if target.strip()]
    if not targets:
        parser.error("--to must name at least one target scheme")
    rng = random.Random(args.seed)
    payloads = {
        f"doc-{index:03d}": rng.randbytes(args.doc_size) for index in range(args.docs)
    }
    intact = True
    try:
        service = open_service(_service_config(args), workers=args.workers)
        for name, payload in payloads.items():
            service.put(name, payload)
        print(f"scheme       : {service.scheme.scheme_id}")
        print(f"shards       : {args.shards}")
        print(f"documents    : {args.docs} x {args.doc_size} bytes")
        for target in targets:
            outcome = service.transition_to(target)
            hop_ok = all(
                service.get(name) == payload for name, payload in payloads.items()
            )
            intact = intact and hop_ok
            print(
                f"transition   : {_hop_summary(target, outcome)}, reads "
                f"{'byte-exact' if hop_ok else 'MISMATCH'}"
            )
        service.close()
    except (ReproError, ValueError) as exc:
        parser.error(str(exc))
    print(
        f"verify       : "
        f"{'OK (byte-exact after every hop)' if intact else 'FAILED (data mismatch)'}"
    )
    if args.data_dir is not None:
        print(f"persisted    : {args.data_dir}")
    return 0 if intact else 1


#: Subcommands with their own option sets (must come first on the command line).
SUBCOMMANDS: Dict[str, Callable[[List[str]], int]] = {
    "ingest": ingest_main,
    "repair": repair_main,
    "compare": compare_main,
    "simulate": simulate_main,
    "load": load_main,
    "transition": transition_main,
}


def main(argv: List[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] in SUBCOMMANDS:
        return SUBCOMMANDS[argv[0]](argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list:
        for name in sorted([*EXPERIMENTS, *SUBCOMMANDS]):
            print(name)
        return 0
    if args.experiment in SUBCOMMANDS:
        # Reached when flags precede the subcommand; subcommands have their
        # own option sets and must come first.
        parser.error(
            f"{args.experiment!r} takes its own options and must be the first "
            f"argument: repro-experiments {args.experiment} [--scheme ...]"
        )
    if args.experiment == "all":
        for name in EXPERIMENTS:
            print(f"== {name} ==")
            print(EXPERIMENTS[name](args))
            print()
        return 0
    if args.experiment not in EXPERIMENTS:
        parser.error(
            f"unknown experiment {args.experiment!r}; use --list to see the options"
        )
    print(EXPERIMENTS[args.experiment](args))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
