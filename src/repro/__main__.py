"""Command-line interface.

Examples::

    python -m repro run --system depgraph-h --dataset LJ --algorithm sssp
    python -m repro compare --dataset FS --algorithm pagerank --scale 0.4
    python -m repro trace pagerank GL --scale 0.1 --cores 8 --sink file
    python -m repro serve-bench --dataset PK --scale 0.1 --slots 30
    python -m repro experiment fig11
    python -m repro list
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys
from pathlib import Path

from . import algorithms, observe, runtime
from .graph import datasets
from .hardware import HardwareConfig

EXPERIMENT_MODULES = {
    "fig4": "fig04_motivation",
    "fig9": "fig09_breakdown",
    "fig10": "fig10_updates",
    "fig11": "fig11_speedup",
    "fig12": "fig12_utilization",
    "fig13": "fig13_scalability",
    "fig14": "fig14_energy",
    "fig15": "fig15_stack_depth",
    "fig16": "fig16_cache",
    "fig17": "fig16_cache",
    "fig18": "fig18_lambda_beta",
    "fig19": "fig19_skew",
    "table3": "table03_datasets",
    "table4": "table04_area",
    "preprocessing": "preprocessing",
    "sched": "sched_compare",
    "reorder": "reorder_compare",
    "backend": "backend_compare",
    "traffic": "traffic_slo",
    "cluster": "cluster_scaling",
    "stream": "stream_ingest",
    "scale": "scale_sweep",
}


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="DepGraph (HPCA 2021) reproduction"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one system on one workload")
    run_p.add_argument("--system", default="depgraph-h", choices=runtime.SYSTEM_NAMES)
    run_p.add_argument("--dataset", default="LJ", choices=datasets.DATASET_NAMES)
    run_p.add_argument(
        "--algorithm",
        default="sssp",
        choices=sorted({**algorithms.PAPER_ALGORITHMS, **algorithms.EXTENSION_ALGORITHMS}),
    )
    run_p.add_argument("--scale", type=float, default=0.3)
    run_p.add_argument("--cores", type=int, default=64)
    run_p.add_argument(
        "--steal-policy", default="auto", choices=runtime.STEAL_POLICIES
    )
    run_p.add_argument(
        "--reorder", default="identity", choices=runtime.ORDERING_NAMES
    )
    run_p.add_argument(
        "--backend", default="scalar", choices=runtime.BACKEND_NAMES
    )

    cmp_p = sub.add_parser("compare", help="run every system on one workload")
    cmp_p.add_argument("--dataset", default="LJ", choices=datasets.DATASET_NAMES)
    cmp_p.add_argument("--algorithm", default="sssp")
    cmp_p.add_argument("--scale", type=float, default=0.3)
    cmp_p.add_argument("--cores", type=int, default=64)
    cmp_p.add_argument(
        "--steal-policy", default="auto", choices=runtime.STEAL_POLICIES
    )
    cmp_p.add_argument(
        "--reorder", default="identity", choices=runtime.ORDERING_NAMES
    )
    cmp_p.add_argument(
        "--backend", default="scalar", choices=runtime.BACKEND_NAMES
    )

    exp_p = sub.add_parser("experiment", help="regenerate a figure/table")
    exp_p.add_argument("name", choices=sorted(EXPERIMENT_MODULES))
    exp_p.add_argument(
        "--reorder",
        default=None,
        choices=runtime.ORDERING_NAMES,
        help="vertex ordering for every run of the experiment (sets "
        "REPRO_REORDER for the harness; default: identity)",
    )
    exp_p.add_argument(
        "--backend",
        default=None,
        choices=runtime.BACKEND_NAMES,
        help="execution backend for every run of the experiment (sets "
        "REPRO_BACKEND for the harness; default: scalar)",
    )

    trace_p = sub.add_parser(
        "trace",
        help="run one experiment with tracing; write a Perfetto-loadable "
        "Chrome trace, metrics.json, and a text flame summary",
    )
    trace_p.add_argument(
        "algorithm",
        choices=sorted(
            {**algorithms.PAPER_ALGORITHMS, **algorithms.EXTENSION_ALGORITHMS}
        ),
    )
    trace_p.add_argument("dataset", choices=datasets.DATASET_NAMES)
    trace_p.add_argument(
        "--system", default="depgraph-h", choices=runtime.SYSTEM_NAMES
    )
    trace_p.add_argument("--scale", type=float, default=0.2)
    trace_p.add_argument("--cores", type=int, default=16)
    trace_p.add_argument(
        "--steal-policy", default="auto", choices=runtime.STEAL_POLICIES
    )
    trace_p.add_argument(
        "--reorder", default="identity", choices=runtime.ORDERING_NAMES
    )
    trace_p.add_argument(
        "--backend", default="scalar", choices=runtime.BACKEND_NAMES
    )
    trace_p.add_argument(
        "--out",
        default="results/trace",
        help="output directory (default: results/trace)",
    )
    trace_p.add_argument(
        "--capacity",
        type=_positive_int,
        default=observe.DEFAULT_CAPACITY,
        help="trace ring-buffer capacity, in events",
    )
    trace_p.add_argument(
        "--sink",
        default="ring",
        choices=("ring", "file"),
        help="event storage: bounded in-memory ring (default) or a "
        "streaming JSONL file that never drops the start of a run",
    )

    serve_p = sub.add_parser(
        "serve-bench",
        help="benchmark the serving subsystem: versioned updates, "
        "batching, caching, warm-start; writes a table + metrics.json",
    )
    serve_p.add_argument(
        "--dataset", default="PK", choices=datasets.DATASET_NAMES
    )
    serve_p.add_argument("--scale", type=float, default=0.1)
    serve_p.add_argument("--seed", type=int, default=0)
    serve_p.add_argument(
        "--slots", type=_positive_int, default=30,
        help="workload length, in scheduler slots",
    )
    serve_p.add_argument(
        "--system", default="depgraph-h", choices=runtime.SYSTEM_NAMES
    )
    serve_p.add_argument("--cores", type=int, default=8)
    serve_p.add_argument(
        "--reorder", default="identity", choices=runtime.ORDERING_NAMES
    )
    serve_p.add_argument(
        "--backend", default="scalar", choices=runtime.BACKEND_NAMES
    )
    serve_p.add_argument(
        "--algorithms",
        default="pagerank,sssp,wcc",
        help="comma-separated query mix",
    )
    serve_p.add_argument(
        "--no-verify",
        action="store_true",
        help="skip the shadow cold-control verification runs",
    )
    serve_p.add_argument(
        "--out",
        default="results",
        help="output directory (default: results)",
    )

    traffic_p = sub.add_parser(
        "traffic",
        help="ramp offered load against the serving tier with open- or "
        "closed-loop arrivals and Zipfian query popularity; reports "
        "p50/p95/p99 latency, shed rate, cache hits, and warm-start "
        "share per level (writes results/traffic_slo.*)",
    )
    traffic_p.add_argument(
        "--dataset", default="AZ", choices=datasets.DATASET_NAMES
    )
    traffic_p.add_argument("--scale", type=float, default=0.1)
    traffic_p.add_argument("--seed", type=int, default=0)
    traffic_p.add_argument(
        "--system", default="depgraph-h", choices=runtime.SYSTEM_NAMES
    )
    traffic_p.add_argument("--cores", type=int, default=4)
    traffic_p.add_argument(
        "--backend", default="scalar", choices=runtime.BACKEND_NAMES
    )
    traffic_p.add_argument(
        "--reorder", default="identity", choices=runtime.ORDERING_NAMES
    )
    traffic_p.add_argument(
        "--mode",
        default="closed",
        choices=("closed", "open"),
        help="closed: levels are concurrent users; open: levels are "
        "arrivals per Mcycle (default: closed)",
    )
    traffic_p.add_argument(
        "--levels",
        default="1,2,4,8,16",
        help="comma-separated load levels to sweep",
    )
    traffic_p.add_argument(
        "--requests",
        type=_positive_int,
        default=30,
        help="terminal responses (closed) / arrivals (open) per level",
    )
    traffic_p.add_argument(
        "--think-cycles",
        type=float,
        default=150_000.0,
        help="mean think time between a user's requests, in sim cycles",
    )
    traffic_p.add_argument(
        "--zipf-s",
        type=float,
        default=1.1,
        help="Zipf popularity exponent over the query catalog (0=uniform)",
    )
    traffic_p.add_argument(
        "--algorithms",
        default="sssp,wcc,bfs,pagerank",
        help="comma-separated query-catalog algorithms",
    )
    traffic_p.add_argument(
        "--mutation-every",
        type=float,
        default=600_000.0,
        help="mean sim cycles between mutation bursts (0 disables)",
    )
    traffic_p.add_argument("--queue-limit", type=int, default=12)
    traffic_p.add_argument("--cache-capacity", type=int, default=32)
    traffic_p.add_argument(
        "--deadline-cycles",
        type=float,
        default=2_000_000.0,
        help="per-request deadline in sim cycles from admission",
    )
    traffic_p.add_argument(
        "--no-cold-control",
        action="store_true",
        help="skip the warm-off/cache-off control run per level",
    )
    traffic_p.add_argument(
        "--workers",
        type=int,
        default=0,
        help="0 = the embedded single-process service (default); N >= 1 "
        "= drive an N-worker serving cluster instead",
    )
    traffic_p.add_argument(
        "--transport",
        default="inline",
        choices=("inline", "process"),
        help="cluster worker transport when --workers >= 1 (inline keeps "
        "sweeps deterministic; process spawns real OS workers)",
    )
    traffic_p.add_argument(
        "--out", default="results", help="output directory (default: results)"
    )

    stream_p = sub.add_parser(
        "stream",
        help="ingest a seeded edge-event stream: windowed snapshot "
        "publications, standing queries kept continuously warm, "
        "per-event staleness under obs.stream.*",
    )
    stream_p.add_argument(
        "--dataset", default="AZ", choices=datasets.DATASET_NAMES
    )
    stream_p.add_argument("--scale", type=float, default=0.1)
    stream_p.add_argument("--seed", type=int, default=0)
    stream_p.add_argument(
        "--system", default="depgraph-h", choices=runtime.SYSTEM_NAMES
    )
    stream_p.add_argument("--cores", type=int, default=4)
    stream_p.add_argument(
        "--backend", default="scalar", choices=runtime.BACKEND_NAMES
    )
    stream_p.add_argument(
        "--reorder", default="identity", choices=runtime.ORDERING_NAMES
    )
    stream_p.add_argument(
        "--cadence",
        default="count",
        choices=("count", "interval"),
        help="publication cadence: every N events (count) or every W "
        "simulated cycles (interval)",
    )
    stream_p.add_argument(
        "--window",
        type=float,
        default=8.0,
        help="window size: events per snapshot (count) or simulated "
        "cycles per snapshot (interval)",
    )
    stream_p.add_argument(
        "--events",
        type=_positive_int,
        default=48,
        help="total edge events in the stream",
    )
    stream_p.add_argument(
        "--mean-gap",
        type=float,
        default=25_000.0,
        help="mean simulated cycles between events (exponential gaps)",
    )
    stream_p.add_argument(
        "--queries",
        default=None,
        help="comma-separated standing-query algorithms (default: "
        "sssp,pagerank,wcc with their catalog parameters)",
    )
    stream_p.add_argument(
        "--compact-every",
        type=int,
        default=2,
        help="compact the snapshot chain every N publications (0 off)",
    )
    stream_p.add_argument(
        "--keep-last",
        type=int,
        default=2,
        help="versions retained by each compaction",
    )
    stream_p.add_argument("--queue-limit", type=int, default=64)
    stream_p.add_argument("--cache-capacity", type=int, default=32)
    stream_p.add_argument(
        "--workers",
        type=int,
        default=0,
        help="0 = the embedded single-process service (default); N >= 1 "
        "= drive an N-worker serving cluster instead",
    )
    stream_p.add_argument(
        "--transport",
        default="inline",
        choices=("inline", "process"),
        help="cluster worker transport when --workers >= 1",
    )
    stream_p.add_argument(
        "--cold-control",
        action="store_true",
        help="also replay the stream with warm-start off and caches "
        "disabled, and report the warm-vs-cold engine cost",
    )

    cluster_p = sub.add_parser(
        "serve",
        help="start the multi-worker serving cluster behind an HTTP/JSON "
        "front door (POST /query /update /compact, GET /healthz /readyz "
        "/metrics); runs until interrupted",
    )
    cluster_p.add_argument("--host", default="127.0.0.1")
    cluster_p.add_argument(
        "--port",
        type=int,
        default=8080,
        help="TCP port (0 picks an ephemeral port, printed on startup)",
    )
    cluster_p.add_argument(
        "--workers", type=_positive_int, default=2, help="worker pool size"
    )
    cluster_p.add_argument(
        "--transport",
        default="process",
        choices=("inline", "process"),
        help="worker hosting: spawned OS processes (default) or inline",
    )
    cluster_p.add_argument(
        "--dataset", default="AZ", choices=datasets.DATASET_NAMES
    )
    cluster_p.add_argument("--scale", type=float, default=0.1)
    cluster_p.add_argument(
        "--system", default="depgraph-h", choices=runtime.SYSTEM_NAMES
    )
    cluster_p.add_argument(
        "--cores", type=int, default=4, help="simulated cores per worker"
    )
    cluster_p.add_argument(
        "--backend", default="scalar", choices=runtime.BACKEND_NAMES
    )
    cluster_p.add_argument(
        "--reorder", default="identity", choices=runtime.ORDERING_NAMES
    )
    cluster_p.add_argument("--queue-limit", type=int, default=64)
    cluster_p.add_argument("--cache-capacity", type=int, default=128)
    cluster_p.add_argument(
        "--spool-dir",
        default=None,
        help="parent directory of the cluster's own spool (store snapshots "
        "+ the shared baseline spool; removed on exit; default: the temp dir)",
    )

    sub.add_parser("list", help="list systems, algorithms, datasets")
    return parser


def _print_result(result) -> None:
    print(
        f"{result.system:14s} cycles={result.cycles:12.0f} "
        f"updates={result.total_updates:8d} rounds={result.rounds:5d} "
        f"util={result.utilization():.2f} converged={result.converged}"
    )


def _run_trace(args) -> int:
    """The ``trace`` subcommand: one traced run + trace/metrics artifacts."""
    graph = datasets.load(args.dataset, scale=args.scale)
    algorithm = algorithms.make(args.algorithm)
    hardware = HardwareConfig.scaled(num_cores=args.cores)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.system}_{args.algorithm}_{args.dataset}"
    if args.steal_policy != "random":
        stem += f"_{args.steal_policy}"
    if args.reorder != "identity":
        stem += f"_{args.reorder}"
    if args.backend != "scalar":
        stem += f"_{args.backend}"
    sink = None
    if args.sink == "file":
        sink = observe.FileSink(out_dir / f"{stem}.events.jsonl")
    tracer = observe.Tracer(capacity=args.capacity, sink=sink)
    print(f"dataset {args.dataset}: {graph}")
    result = runtime.run(
        args.system,
        graph,
        algorithm,
        hardware,
        tracer=tracer,
        steal_policy=args.steal_policy,
        reorder=args.reorder,
        backend=args.backend,
    )
    _print_result(result)

    trace_path = out_dir / f"{stem}.trace.json"
    metrics_path = out_dir / f"{stem}.metrics.json"
    observe.write_chrome_trace(
        tracer,
        trace_path,
        system=args.system,
        algorithm=args.algorithm,
        dataset=args.dataset,
        scale=args.scale,
        cores=args.cores,
    )
    # The registry was already flushed into result.extra; re-derive it for
    # the standalone metrics file so the two artifacts match.
    registry = observe.MetricRegistry()
    for key, value in result.extra.items():
        if key.startswith("obs."):
            registry.set(key[len("obs."):], value)
    registry.write_json(
        metrics_path,
        system=args.system,
        algorithm=args.algorithm,
        dataset=args.dataset,
        scale=args.scale,
        cores=args.cores,
        reorder=args.reorder,
        backend=args.backend,
        cycles=result.cycles,
        rounds=result.rounds,
        converged=result.converged,
    )
    print(f"\ntrace:   {trace_path}  (open in https://ui.perfetto.dev)")
    if sink is not None:
        print(f"events:  {sink.path}  ({sink.count} events, none dropped)")
    print(f"metrics: {metrics_path}")
    print("\nwhere the cycles went (by span):")
    print(observe.flame_summary(tracer))
    if sink is not None:
        sink.close()
    return 0


def _run_serve_bench(args) -> int:
    """The ``serve-bench`` subcommand: exercise ``repro.serve``."""
    from .serve.bench import BenchConfig, run_bench, write_artifacts

    config = BenchConfig(
        dataset=args.dataset,
        scale=args.scale,
        seed=args.seed,
        slots=args.slots,
        system=args.system,
        cores=args.cores,
        reorder=args.reorder,
        backend=args.backend,
        algorithms=tuple(
            name.strip() for name in args.algorithms.split(",") if name.strip()
        ),
        verify_cold=not args.no_verify,
        out_dir=args.out,
    )
    table, service, verification = run_bench(config)
    table.print()
    table_path, metrics_path = write_artifacts(table, service, config)
    print(f"\ntable:   {table_path}")
    print(f"metrics: {metrics_path}")
    if verification.warm_runs and not verification.states_match:
        print("WARNING: warm/cold state mismatch detected")
        return 1
    return 0


def _run_traffic(args) -> int:
    """The ``traffic`` subcommand: the load sweep (``repro.serve.traffic``)."""
    from .serve.traffic import TrafficConfig, run_sweep, write_artifacts

    config = TrafficConfig(
        dataset=args.dataset,
        scale=args.scale,
        seed=args.seed,
        system=args.system,
        cores=args.cores,
        backend=args.backend,
        reorder=args.reorder,
        mode=args.mode,
        levels=tuple(
            float(level) for level in args.levels.split(",") if level.strip()
        ),
        requests_per_level=args.requests,
        think_cycles=args.think_cycles,
        zipf_s=args.zipf_s,
        algorithms=tuple(
            name.strip() for name in args.algorithms.split(",") if name.strip()
        ),
        mutation_every_cycles=args.mutation_every,
        queue_limit=args.queue_limit,
        cache_capacity=args.cache_capacity,
        deadline_cycles=args.deadline_cycles,
        cold_control=not args.no_cold_control,
        workers=args.workers,
        transport=args.transport,
        out_dir=args.out,
    )
    sweep = run_sweep(config)
    sweep.table().print()
    table_path, metrics_path = write_artifacts(sweep)
    print(f"\ntable:   {table_path}")
    print(f"metrics: {metrics_path}")
    return 0


def _run_stream(args) -> int:
    """The ``stream`` subcommand: one streaming-ingest run."""
    from .serve.stream import (
        DEFAULT_STANDING_QUERIES,
        StreamConfig,
        run_stream,
    )
    from .serve.traffic import QuerySpec, default_catalog

    queries = DEFAULT_STANDING_QUERIES
    if args.queries:
        catalog = {spec.algorithm: spec for spec in default_catalog()}
        queries = tuple(
            catalog.get(name.strip(), QuerySpec(name.strip()))
            for name in args.queries.split(",")
            if name.strip()
        )
    config = StreamConfig(
        dataset=args.dataset,
        scale=args.scale,
        seed=args.seed,
        system=args.system,
        cores=args.cores,
        backend=args.backend,
        reorder=args.reorder,
        cadence=args.cadence,
        window=args.window,
        events=args.events,
        mean_gap_cycles=args.mean_gap,
        queries=queries,
        compact_every=args.compact_every,
        keep_last=args.keep_last,
        queue_limit=args.queue_limit,
        cache_capacity=args.cache_capacity,
        workers=args.workers,
        transport=args.transport,
    )
    stats = run_stream(config)
    print(
        f"stream {config.cadence}@{config.window:g}: "
        f"{stats.events} events -> {stats.snapshots} snapshots, "
        f"{stats.compactions} compactions, "
        f"{len(stats.refreshes)} standing refreshes"
    )
    print(
        f"  sustained  {stats.updates_per_mcycle:.3f} events/Mcycle over "
        f"{stats.sim_cycles / 1e6:.2f} Mcycles"
    )
    print(
        f"  staleness  p50 {stats.staleness_quantile(0.50) / 1e3:.0f} kcyc, "
        f"p95 {stats.staleness_quantile(0.95) / 1e3:.0f} kcyc "
        f"({len(stats.staleness)} event x query samples)"
    )
    print(
        f"  warm       share {stats.warm_share:.3f}, "
        f"engine updates {int(stats.engine_updates)}"
    )
    print(f"  chain      {stats.chain_sha}")
    if args.cold_control:
        cold = run_stream(config, warm=False)
        ratio = (
            stats.engine_updates / cold.engine_updates
            if cold.engine_updates
            else 0.0
        )
        print(
            f"  cold ctrl  engine updates {int(cold.engine_updates)} "
            f"(warm/cold = {ratio:.3f})"
        )
    return 0


def _run_serve(args) -> int:
    """The ``serve`` subcommand: the cluster's HTTP/JSON front door."""
    import asyncio

    from .serve.cluster import ClusterService, run_server
    from .serve.service import ServeConfig

    graph = datasets.load(args.dataset, scale=args.scale)
    print(f"dataset {args.dataset}: {graph}", flush=True)
    service = ClusterService(
        graph,
        ServeConfig(
            system=args.system,
            cores=args.cores,
            queue_limit=args.queue_limit,
            cache_capacity=args.cache_capacity,
            reorder=args.reorder,
            backend=args.backend,
        ),
        workers=args.workers,
        transport=args.transport,
        spool_dir=args.spool_dir,
    )
    try:
        asyncio.run(run_server(service, args.host, args.port))
    except KeyboardInterrupt:
        pass
    finally:
        service.close()
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        print("systems:   ", ", ".join(runtime.SYSTEM_NAMES))
        print(
            "algorithms:",
            ", ".join(
                sorted(
                    {**algorithms.PAPER_ALGORITHMS, **algorithms.EXTENSION_ALGORITHMS}
                )
            ),
        )
        print("datasets:  ", ", ".join(datasets.DATASET_NAMES))
        print("experiments:", ", ".join(sorted(EXPERIMENT_MODULES)))
        return 0
    if args.command == "experiment":
        if args.reorder is not None:
            # the experiment harness reads the ordering from the
            # environment (see ExperimentConfig), like REPRO_SCALE
            os.environ["REPRO_REORDER"] = args.reorder
        if args.backend is not None:
            os.environ["REPRO_BACKEND"] = args.backend
        module = importlib.import_module(
            f".experiments.{EXPERIMENT_MODULES[args.name]}", package=__package__
        )
        module.main()
        return 0
    if args.command == "trace":
        return _run_trace(args)
    if args.command == "serve-bench":
        return _run_serve_bench(args)
    if args.command == "traffic":
        return _run_traffic(args)
    if args.command == "stream":
        return _run_stream(args)
    if args.command == "serve":
        return _run_serve(args)

    graph = datasets.load(args.dataset, scale=args.scale)
    algorithm = algorithms.make(args.algorithm)
    hardware = HardwareConfig.scaled(num_cores=args.cores)
    print(f"dataset {args.dataset}: {graph}")
    if args.command == "run":
        _print_result(
            runtime.run(
                args.system,
                graph,
                algorithm,
                hardware,
                steal_policy=args.steal_policy,
                reorder=args.reorder,
                backend=args.backend,
            )
        )
        return 0
    # compare
    base = None
    for system in runtime.SYSTEM_NAMES:
        result = runtime.run(
            system,
            graph,
            algorithms.make(args.algorithm),
            hardware,
            steal_policy=args.steal_policy,
            reorder=args.reorder,
            backend=args.backend,
        )
        if system == "ligra-o":
            base = result
        _print_result(result)
    if base is not None:
        print(f"\n(baseline for speedups: ligra-o @ {base.cycles:.0f} cycles)")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
