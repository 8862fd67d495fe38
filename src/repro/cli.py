"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------
``info``      build a dataset profile and print its Table-2 statistics
``generate``  build a dataset profile and save it as a JSON snapshot
``sk``        run an SK workload against one index and print the report
``diversify`` run a diversified workload (SEQ and COM) and print both
``update``    run a mixed update+query workload against a live database
``compare``   run one workload against every index kind (mini Fig. 6)
``explain``   run ONE query under tracing and print its pruning report
``slowlog``   render a persisted slow-query log (JSON lines) as text
``loadtest``  drive sustained QPS (open loop) gated by a live SLO
``replay``    deterministically re-execute a ``--record`` journal and
              report divergences (``--backend``/``--workers`` turn
              it into a cross-backend audit)
``profile``   render a folded-stack profile written by the profiler
``bench``     benchmark artifact tools (``bench compare OLD NEW``)

Flight recorder: every workload command accepts ``--record FILE`` to
journal each executed query (parameters, plan label, result digest,
stats) plus every committed update as JSON lines — ``repro replay
FILE`` re-executes the journal and fails on any divergence.
``--shadow-backend NAME`` re-runs a sampled fraction of queries
(``--shadow-rate``) on a second distance backend in flight and counts
``shadow.divergences``; mismatches land in the slow-query log with
both digests.

The workload commands accept ``--metrics <path>`` to stream one JSON
record per query (latency, stage breakdown, cache/buffer deltas) plus
workload summaries and a final registry snapshot to a JSON-lines file,
and ``diversify`` accepts ``--distance-cache <entries>`` to serve the
workload through a shared bounded distance cache.

Observability exports: ``--trace <path>`` records per-query span trees
for the whole run — including concurrent runs with ``--workers N``,
which merge into one Chrome trace with a lane per worker — and writes
Chrome trace-event JSON (load it at https://ui.perfetto.dev);
``--prom <path>`` writes a Prometheus text exposition of the final
metrics registry plus point-in-time cache/buffer gauges.  Slow-query
capture: ``--slow-ms`` / ``--slow-nodes`` set the thresholds,
``--slowlog <path>`` persists the captured records as JSON lines
(``repro slowlog <path>`` renders them).  ``--slo <spec.json>``
evaluates a declarative SLO spec against the final registry snapshot
and fails the command when an objective is violated.

Live telemetry: every workload command (and ``loadtest``) accepts
``--telemetry-port N`` to serve ``/metrics`` (Prometheus), ``/healthz``,
``/vars``, ``/slowlog``, ``/profile`` and ``/slo`` over HTTP for the
duration of the run, so an external scraper watches counters advance
*while* queries execute.  ``loadtest`` evaluates its ``--slo`` spec
continuously against a ~10 s sliding window (not once at the end) and
exits non-zero when the final window is in breach; ``--profile-out``
writes the sampling profiler's folded stacks for ``repro profile`` /
flamegraph tooling.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path
from typing import List, Optional

from .bench.reporting import print_table
from .core.database import INDEX_KINDS, Database
from .network.distance import DISTANCE_BACKENDS
from .datasets.catalog import PROFILES, build_dataset
from .datasets.io import save_dataset
from .workloads.queries import (
    WorkloadConfig,
    generate_diversified_queries,
    generate_sk_queries,
)
from .workloads.runner import run_diversified_workload, run_sk_workload

__all__ = ["main", "build_parser"]


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _positive_float(text: str) -> float:
    """A finite float > 0.  Guards rate-style flags (``--profile-hz``,
    ``--qps``): zero or negative values would busy-loop or crash a
    daemon thread long after parsing, so reject them up front."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number")
    if not value > 0 or math.isinf(value):
        raise argparse.ArgumentTypeError(
            "must be a positive finite number"
        )
    return value


def _rate(text: str) -> float:
    """A sampling fraction in ``(0, 1]``."""
    value = _positive_float(text)
    if value > 1.0:
        raise argparse.ArgumentTypeError("must be a fraction in (0, 1]")
    return value


def _port(text: str) -> int:
    """A TCP port number (0 = pick a free ephemeral port)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if not 0 <= value <= 65535:
        raise argparse.ArgumentTypeError("must be a port number (0-65535)")
    return value


def _output_path(text: str) -> str:
    """An output file path whose parent directory must already exist.

    Validated at parse time so a typo in ``--trace``/``--prom``/
    ``--metrics`` fails before minutes of workload run, not after.
    """
    parent = Path(text).expanduser().resolve().parent
    if not parent.is_dir():
        raise argparse.ArgumentTypeError(
            f"directory {parent} does not exist (cannot write {text!r})"
        )
    return text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Diversified spatial keyword search on road networks "
        "(EDBT 2014 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_dataset_args(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "profile", choices=sorted(PROFILES), help="dataset profile"
        )
        p.add_argument("--scale", type=float, default=1.0,
                       help="proportional dataset scale (default 1.0)")
        p.add_argument("--seed", type=int, default=None,
                       help="override the profile's generator seed")

    def add_backend_arg(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--distance-backend", choices=DISTANCE_BACKENDS,
            default="dijkstra",
            help="exact pairwise-distance backend: bounded Dijkstras "
                 "(default), the Contraction-Hierarchies oracle, or "
                 "2-hop hub labels ('hub') — identical "
                 "answers, built once per database",
        )

    def add_workload_args(p: argparse.ArgumentParser) -> None:
        add_backend_arg(p)
        p.add_argument("--queries", type=int, default=50)
        p.add_argument("--keywords", type=int, default=3, metavar="L")
        p.add_argument("--delta-max", type=float, default=None)
        p.add_argument("--workload-seed", type=int, default=101)
        p.add_argument(
            "--workers", type=_positive_int, default=1, metavar="N",
            help="run the workload on N query-engine threads "
                 "(default 1 = serial); tracing and the slow-query log "
                 "compose with concurrency",
        )
        p.add_argument(
            "--metrics", metavar="PATH", default=None, type=_output_path,
            help="write per-query metric records (JSON lines) to PATH",
        )
        p.add_argument(
            "--trace", metavar="PATH", default=None, type=_output_path,
            help="trace every query and write Chrome trace-event JSON "
                 "(Perfetto-loadable) to PATH",
        )
        p.add_argument(
            "--prom", metavar="PATH", default=None, type=_output_path,
            help="write a Prometheus text exposition of the final "
                 "metrics registry (plus cache/buffer gauges) to PATH",
        )
        p.add_argument(
            "--slow-ms", type=float, default=None, metavar="MS",
            help="capture queries whose wall time reaches MS "
                 "milliseconds in the slow-query log",
        )
        p.add_argument(
            "--slow-nodes", type=_positive_int, default=None, metavar="N",
            help="capture queries whose expansion visited at least N "
                 "network nodes in the slow-query log",
        )
        p.add_argument(
            "--slowlog", metavar="PATH", default=None, type=_output_path,
            help="persist captured slow queries as JSON lines to PATH "
                 "(with no --slow-ms/--slow-nodes, captures every "
                 "query); render with `repro slowlog PATH`",
        )
        p.add_argument(
            "--slo", metavar="SPEC", default=None,
            help="evaluate the SLO spec (JSON) against the final "
                 "metrics snapshot; exit non-zero on violation",
        )
        p.add_argument(
            "--telemetry-port", type=_port, default=None, metavar="PORT",
            help="serve live telemetry over HTTP on 127.0.0.1:PORT for "
                 "the duration of the run (/metrics, /healthz, /vars, "
                 "/slowlog, /profile, /slo, /recorder); 0 picks a free "
                 "port",
        )
        p.add_argument(
            "--record", metavar="PATH", default=None, type=_output_path,
            help="flight-record every executed query (parameters, plan "
                 "label, result digest, stats) plus committed updates "
                 "as JSON lines to PATH; re-execute and audit with "
                 "`repro replay PATH`",
        )
        p.add_argument(
            "--shadow-backend", choices=DISTANCE_BACKENDS, default=None,
            help="re-run a sampled fraction of diversified queries on "
                 "this second distance backend in flight and compare "
                 "result digests (divergences are counted and filed "
                 "into the slow-query log; exit code reflects them)",
        )
        p.add_argument(
            "--shadow-rate", type=_rate, default=1.0, metavar="FRACTION",
            help="fraction of queries shadow-executed, in (0, 1] "
                 "(default 1.0; sampling is deterministic in the "
                 "query's batch index)",
        )

    p = sub.add_parser("info", help="dataset statistics")
    add_dataset_args(p)

    p = sub.add_parser("generate", help="save a dataset snapshot")
    add_dataset_args(p)
    p.add_argument("--out", required=True, help="output JSON path")

    p = sub.add_parser("sk", help="SK workload against one index")
    add_dataset_args(p)
    add_workload_args(p)
    p.add_argument("--index", choices=INDEX_KINDS, default="sif")

    p = sub.add_parser("diversify", help="diversified workload, SEQ and COM")
    add_dataset_args(p)
    add_workload_args(p)
    p.add_argument("--index", choices=INDEX_KINDS, default="sif")
    p.add_argument("--k", type=int, default=6)
    p.add_argument("--lambda", dest="lambda_", type=float, default=0.8)
    p.add_argument(
        "--distance-cache", type=_positive_int, default=None, metavar="ENTRIES",
        help="share a bounded LRU distance cache (capacity in node-map "
             "entries) across the workload's queries",
    )

    p = sub.add_parser(
        "update",
        help="mixed update+query workload against a live database",
    )
    add_dataset_args(p)
    add_workload_args(p)
    p.add_argument("--index", choices=INDEX_KINDS, default="sif")
    p.add_argument("--k", type=int, default=6)
    p.add_argument("--lambda", dest="lambda_", type=float, default=0.8)
    p.add_argument(
        "--method", choices=("seq", "com"), default="seq",
        help="diversified algorithm for the query batches (default seq)",
    )
    p.add_argument(
        "--batches", type=_positive_int, default=4, metavar="N",
        help="query batches; updates apply between them (default 4)",
    )
    p.add_argument(
        "--updates-per-batch", type=int, default=20, metavar="N",
        help="updates applied between consecutive batches (default 20)",
    )
    p.add_argument(
        "--update-seed", type=int, default=202,
        help="seed for the update generator (default 202)",
    )
    p.add_argument(
        "--insert-weight", type=float, default=0.4,
        help="relative weight of object inserts in the mix",
    )
    p.add_argument(
        "--delete-weight", type=float, default=0.4,
        help="relative weight of object deletes in the mix",
    )
    p.add_argument(
        "--edge-weight-weight", type=float, default=0.2,
        help="relative weight of edge reweights in the mix",
    )
    p.add_argument(
        "--distance-cache", type=_positive_int, default=None,
        metavar="ENTRIES",
        help="share a bounded LRU distance cache across the workload "
             "(epoch-gated: edge reweights invalidate it)",
    )
    p.add_argument(
        "--result-cache", type=_positive_int, default=None,
        metavar="ENTRIES",
        help="install a semantic result cache validated against the "
             "update journal",
    )

    p = sub.add_parser("compare", help="one workload, every index kind")
    add_dataset_args(p)
    add_workload_args(p)

    p = sub.add_parser(
        "explain",
        help="run one query under tracing and print its pruning report",
    )
    add_dataset_args(p)
    add_backend_arg(p)
    p.add_argument("--index", choices=INDEX_KINDS, default="sif")
    p.add_argument(
        "--method", choices=("com", "seq", "sk"), default="com",
        help="query form: diversified via COM or SEQ, or a plain SK "
             "range query (default com)",
    )
    p.add_argument("--keywords", type=int, default=3, metavar="L")
    p.add_argument("--delta-max", type=float, default=None)
    p.add_argument("--workload-seed", type=int, default=101)
    p.add_argument("--k", type=int, default=6)
    p.add_argument("--lambda", dest="lambda_", type=float, default=0.8)
    p.add_argument(
        "--query", type=int, default=0, metavar="N",
        help="explain the N-th query of the generated workload "
             "(default 0)",
    )
    p.add_argument(
        "--no-pruning", action="store_true",
        help="disable the COM diversity bounds (ablation)",
    )
    p.add_argument(
        "--trace", metavar="PATH", default=None, type=_output_path,
        help="also write the span tree as Chrome trace-event JSON",
    )
    p.add_argument(
        "--slow-ms", type=float, default=None, metavar="MS",
        help="judge the query against an MS-millisecond latency "
             "threshold (adds a SLOW/OK verdict to the report)",
    )
    p.add_argument(
        "--slow-nodes", type=_positive_int, default=None, metavar="N",
        help="judge the query against an N-visited-nodes threshold",
    )

    p = sub.add_parser(
        "slowlog",
        help="render a persisted slow-query log (JSON lines) as text",
    )
    p.add_argument("path", help="JSON-lines file written by --slowlog")
    p.add_argument(
        "--limit", type=_positive_int, default=None, metavar="N",
        help="render only the last N records",
    )

    p = sub.add_parser(
        "loadtest",
        help="drive sustained QPS (open loop) gated by a live SLO",
    )
    add_dataset_args(p)
    add_workload_args(p)
    p.add_argument("--index", choices=INDEX_KINDS, default="sif")
    p.add_argument(
        "--method", choices=("seq", "com", "sk"), default="seq",
        help="query form driven at rate (default seq)",
    )
    p.add_argument("--k", type=int, default=6)
    p.add_argument("--lambda", dest="lambda_", type=float, default=0.8)
    p.add_argument(
        "--qps", type=_positive_float, default=20.0, metavar="RATE",
        help="offered arrival rate, queries/second (default 20)",
    )
    p.add_argument(
        "--duration", type=_positive_float, default=10.0, metavar="SECONDS",
        help="how long to sustain the rate (default 10)",
    )
    p.add_argument(
        "--distance-cache", type=_positive_int, default=None,
        metavar="ENTRIES",
        help="share a bounded LRU distance cache across the run",
    )
    p.add_argument(
        "--profile-out", metavar="PATH", default=None, type=_output_path,
        help="sample wall-clock stacks during the run and write folded "
             "flamegraph lines to PATH (render with `repro profile`)",
    )
    p.add_argument(
        "--profile-hz", type=_positive_float, default=None, metavar="HZ",
        help="profiler sampling rate (default 67 Hz; must be > 0)",
    )

    p = sub.add_parser(
        "replay",
        help="re-execute a --record flight journal; report divergences",
    )
    p.add_argument("path", help="JSON-lines flight journal from --record")
    p.add_argument(
        "--backend", choices=DISTANCE_BACKENDS, default=None,
        help="replay on this distance backend instead of the recorded "
             "one (cross-backend audit: identical digests expected)",
    )
    p.add_argument(
        "--workers", type=_positive_int, default=1, metavar="N",
        help="re-execute each epoch group on N engine threads "
             "(default 1; answers must not change)",
    )
    p.add_argument(
        "--limit", type=_positive_int, default=None, metavar="N",
        help="replay only the first N recorded queries",
    )

    p = sub.add_parser(
        "profile",
        help="render a folded-stack profile written by --profile-out",
    )
    p.add_argument("path", help="folded-stack file (stack<space>count lines)")
    p.add_argument(
        "--top", type=_positive_int, default=15, metavar="N",
        help="show the N hottest stacks/frames (default 15)",
    )

    p = sub.add_parser("bench", help="benchmark artifact tools")
    bench_sub = p.add_subparsers(dest="bench_command", required=True)
    p = bench_sub.add_parser(
        "compare",
        help="diff two trajectory artifacts; flag headline regressions",
    )
    p.add_argument("old", help="baseline BENCH_*.json")
    p.add_argument("new", help="candidate BENCH_*.json")
    p.add_argument(
        "--fail-on-regression", type=float, default=None, metavar="PCT",
        help="exit non-zero when any headline metric moved in its "
             "worse direction by at least PCT percent",
    )
    p.add_argument(
        "--threshold", type=float, default=10.0, metavar="PCT",
        help="report-only movement threshold when --fail-on-regression "
             "is not given (default 10)",
    )

    return parser


def _build_db(args) -> Database:
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    print(f"Building {args.profile} (scale {args.scale})...", file=sys.stderr)
    db = build_dataset(args.profile, scale=args.scale, **overrides)
    backend = getattr(args, "distance_backend", None)
    if backend:
        db.use_distance_backend(backend)
    return db


def _config(args, **extra) -> WorkloadConfig:
    return WorkloadConfig(
        num_queries=args.queries,
        num_keywords=args.keywords,
        delta_max=args.delta_max,
        seed=args.workload_seed,
        **extra,
    )


def _attach_metrics_sink(db, args):
    """Attach a JSON-lines sink when ``--metrics`` was given."""
    path = getattr(args, "metrics", None)
    if not path:
        return None
    from .obs.sinks import JsonLinesSink

    sink = JsonLinesSink(path)
    db.metrics.add_sink(sink)
    return sink


def _close_metrics_sink(db, sink, error: bool = False) -> None:
    """Detach and close the sink; with ``error`` skip the snapshot.

    Runs in a ``finally`` so a query raising mid-workload still leaves
    a closed, flushed JSON-lines file behind.
    """
    if sink is None:
        return
    try:
        if not error:
            snapshot = db.metrics.snapshot()
            snapshot["type"] = "snapshot"
            db.metrics.emit(snapshot)
    finally:
        db.metrics.remove_sink(sink)
        sink.close()
    print(f"Wrote {sink.records_written} metric records to {sink.path}",
          file=sys.stderr)


def _enable_tracing(db, args) -> None:
    """Switch tracing on when any trace export was requested.

    Tracing is concurrency-native: each query draws its own tracer
    from the collector, so ``--trace`` composes with ``--workers N``.
    """
    if getattr(args, "trace", None):
        db.enable_tracing(max_traces=max(64, getattr(args, "queries", 64)))


def _enable_slow_log(db, args) -> None:
    """Install the slow-query log when capture was requested.

    ``--slowlog`` with neither threshold captures *every* query (a
    zero-latency threshold) — the deterministic smoke-test mode.
    """
    slow_ms = getattr(args, "slow_ms", None)
    slow_nodes = getattr(args, "slow_nodes", None)
    slowlog_path = getattr(args, "slowlog", None)
    if slow_ms is None and slow_nodes is None and slowlog_path is None:
        return
    latency = slow_ms / 1e3 if slow_ms is not None else None
    if latency is None and slow_nodes is None:
        latency = 0.0
    db.enable_slow_query_log(
        latency_seconds=latency,
        visited_nodes=slow_nodes,
        path=slowlog_path,
    )


def _report_slow_log(db) -> None:
    log = db.slow_query_log
    if log is None:
        return
    summary = log.summary()
    line = (f"Slow-query log: captured {summary['captured']} of "
            f"{summary['observed']} queries")
    if log.path is not None:
        line += f" → {log.path}"
    print(line, file=sys.stderr)
    db.disable_slow_query_log()


def _enable_recorder(db, args) -> None:
    """Install the flight recorder when ``--record`` was given.

    The header record stamps the journal with everything ``repro
    replay`` needs to rebuild the run: dataset profile/scale/seed,
    backend and starting epoch.
    """
    path = getattr(args, "record", None)
    if not path:
        return
    recorder = db.enable_flight_recorder(path=path)
    recorder.set_header(
        command=args.command,
        profile=args.profile,
        scale=args.scale,
        seed=args.seed,
        index=getattr(args, "index", None),
        distance_backend=db.distance_backend,
        workers=getattr(args, "workers", 1),
        data_version=db.data_version,
    )


def _finish_recorder(db) -> None:
    recorder = db.flight_recorder
    if recorder is None:
        return
    summary = recorder.summary()
    line = (f"Flight recorder: captured {summary['observed']} queries + "
            f"{summary['updates']} updates")
    if recorder.path is not None:
        line += f" → {recorder.path} (audit with `repro replay`)"
    print(line, file=sys.stderr)
    db.disable_flight_recorder()


def _enable_shadow(db, args) -> None:
    """Arm shadow execution when ``--shadow-backend`` was given."""
    backend = getattr(args, "shadow_backend", None)
    if backend is None:
        return
    db.engine.enable_shadow(backend, getattr(args, "shadow_rate", 1.0))


def _report_shadow(db, args) -> int:
    """Print the shadow verdict; non-zero when digests diverged."""
    backend = getattr(args, "shadow_backend", None)
    if backend is None:
        return 0
    counters = db.metrics.counters()
    executions = counters.get("shadow.executions", 0)
    divergences = counters.get("shadow.divergences", 0)
    print(f"Shadow [{backend}]: {executions} shadow executions, "
          f"{divergences} divergence(s)", file=sys.stderr)
    if divergences:
        print("shadow-backend audit FAILED", file=sys.stderr)
        return 1
    return 0


def _start_telemetry(db, args):
    """Start the HTTP telemetry server when ``--telemetry-port`` given.

    Started before the workload and stopped in its ``finally``, so an
    external scraper can watch counters advance while queries run.
    """
    port = getattr(args, "telemetry_port", None)
    if port is None:
        return None
    server = db.serve_telemetry(port=port)
    print(f"Telemetry: {server.url}/metrics (also /healthz /vars "
          f"/slowlog /profile /slo)", file=sys.stderr)
    return server


def _stop_telemetry(db, server) -> None:
    if server is not None:
        db.stop_telemetry()


def _check_slo(db, args) -> int:
    """Evaluate ``--slo`` (when given); the command's exit code."""
    spec_path = getattr(args, "slo", None)
    if not spec_path:
        return 0
    import json

    from .obs.slo import SLOSpec

    with open(spec_path, encoding="utf-8") as fh:
        spec = SLOSpec.from_dict(json.load(fh))
    checks = spec.evaluate(db.metrics.snapshot())
    print(f"SLO {spec.name}:")
    for check in checks:
        print(f"  {check.render()}")
    failed = [c for c in checks if not c.passed]
    if failed:
        print(f"SLO VIOLATED: {len(failed)} of {len(checks)} objectives "
              "failed", file=sys.stderr)
        return 1
    return 0


def _write_observability(db, args) -> None:
    """Write the ``--trace`` / ``--prom`` artifacts after a workload."""
    trace_path = getattr(args, "trace", None)
    if trace_path:
        from .obs.export import write_chrome_trace

        collector = db.trace_collector
        write_chrome_trace(trace_path, collector)
        n = len(collector.records)
        lanes = len(collector.workers)
        print(f"Wrote {n} query traces ({lanes} worker lane(s)) to "
              f"{trace_path} (load at https://ui.perfetto.dev)",
              file=sys.stderr)
    prom_path = getattr(args, "prom", None)
    if prom_path:
        from .obs.export import database_gauges, write_prometheus

        write_prometheus(prom_path, db.metrics, gauges=database_gauges(db))
        print(f"Wrote Prometheus exposition to {prom_path}", file=sys.stderr)


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "info":
        db = _build_db(args)
        print_table([db.dataset_statistics()], f"Dataset {args.profile}")
        return 0

    if args.command == "generate":
        db = _build_db(args)
        save_dataset(db.store, args.out)
        print(f"Wrote {args.out}")
        return 0

    if args.command == "sk":
        db = _build_db(args)
        sink = _attach_metrics_sink(db, args)
        _enable_tracing(db, args)
        _enable_slow_log(db, args)
        _enable_recorder(db, args)
        _enable_shadow(db, args)
        server = _start_telemetry(db, args)
        try:
            index = db.build_index(args.index)
            queries = generate_sk_queries(db, _config(args))
            report = run_sk_workload(db, index, queries, workers=args.workers)
            print_table([report.row()], f"SK workload on {args.profile}")
            _write_observability(db, args)
            _report_slow_log(db)
            _finish_recorder(db)
            rc = _check_slo(db, args) or _report_shadow(db, args)
        except BaseException:
            db.disable_flight_recorder()
            _stop_telemetry(db, server)
            _close_metrics_sink(db, sink, error=True)
            raise
        _stop_telemetry(db, server)
        _close_metrics_sink(db, sink)
        return rc

    if args.command == "diversify":
        db = _build_db(args)
        sink = _attach_metrics_sink(db, args)
        _enable_tracing(db, args)
        _enable_slow_log(db, args)
        _enable_recorder(db, args)
        _enable_shadow(db, args)
        server = _start_telemetry(db, args)
        try:
            if args.distance_cache is not None:
                db.use_shared_distance_cache(max_entries=args.distance_cache)
            index = db.build_index(args.index)
            queries = generate_diversified_queries(
                db, _config(args, k=args.k, lambda_=args.lambda_)
            )
            rows = []
            for method in ("seq", "com"):
                index.counters.reset()
                rows.append(
                    run_diversified_workload(
                        db, index, queries, method=method,
                        workers=args.workers,
                    ).row()
                )
            print_table(rows, f"Diversified workload on {args.profile} "
                              f"(k={args.k}, lambda={args.lambda_})")
            if db.distance_cache is not None:
                print(f"Shared distance cache: {db.distance_cache.stats()}",
                      file=sys.stderr)
            _write_observability(db, args)
            _report_slow_log(db)
            _finish_recorder(db)
            rc = _check_slo(db, args) or _report_shadow(db, args)
        except BaseException:
            db.disable_flight_recorder()
            _stop_telemetry(db, server)
            _close_metrics_sink(db, sink, error=True)
            raise
        _stop_telemetry(db, server)
        _close_metrics_sink(db, sink)
        return rc

    if args.command == "update":
        from .workloads.updates import UpdateWorkloadConfig, run_update_workload

        db = _build_db(args)
        sink = _attach_metrics_sink(db, args)
        _enable_tracing(db, args)
        _enable_slow_log(db, args)
        _enable_recorder(db, args)
        _enable_shadow(db, args)
        server = _start_telemetry(db, args)
        try:
            if args.distance_cache is not None:
                db.use_shared_distance_cache(max_entries=args.distance_cache)
            if args.result_cache is not None:
                db.use_result_cache(max_entries=args.result_cache)
            index = db.build_index(args.index)
            queries = generate_diversified_queries(
                db, _config(args, k=args.k, lambda_=args.lambda_)
            )
            update_config = UpdateWorkloadConfig(
                updates_per_batch=args.updates_per_batch,
                num_batches=args.batches,
                insert_weight=args.insert_weight,
                delete_weight=args.delete_weight,
                edge_weight_weight=args.edge_weight_weight,
                seed=args.update_seed,
            )
            report = run_update_workload(
                db, index, queries, update_config,
                method=args.method, workers=args.workers,
            )
            print_table(
                [report.row()],
                f"Mixed update workload on {args.profile} "
                f"(epoch {report.final_epoch})",
            )
            if db.distance_cache is not None:
                print(f"Shared distance cache: {db.distance_cache.stats()}",
                      file=sys.stderr)
            if db.result_cache is not None:
                print(f"Result cache: {db.result_cache.stats()}",
                      file=sys.stderr)
            _write_observability(db, args)
            _report_slow_log(db)
            _finish_recorder(db)
            rc = _check_slo(db, args) or _report_shadow(db, args)
        except BaseException:
            db.disable_flight_recorder()
            _stop_telemetry(db, server)
            _close_metrics_sink(db, sink, error=True)
            raise
        _stop_telemetry(db, server)
        _close_metrics_sink(db, sink)
        return rc

    if args.command == "compare":
        db = _build_db(args)
        sink = _attach_metrics_sink(db, args)
        _enable_tracing(db, args)
        _enable_slow_log(db, args)
        _enable_recorder(db, args)
        _enable_shadow(db, args)
        server = _start_telemetry(db, args)
        try:
            queries = generate_sk_queries(db, _config(args))
            rows = []
            for kind in ("ir", "if", "sif", "sif-p"):
                index = db.build_index(kind)
                index.counters.reset()
                report = run_sk_workload(
                    db, index, queries, workers=args.workers
                )
                row = report.row()
                row["build_s"] = round(index.build_seconds, 2)
                row["size_KiB"] = index.size_bytes() // 1024
                rows.append(row)
            print_table(rows, f"Index comparison on {args.profile}")
            _write_observability(db, args)
            _report_slow_log(db)
            _finish_recorder(db)
            rc = _check_slo(db, args) or _report_shadow(db, args)
        except BaseException:
            db.disable_flight_recorder()
            _stop_telemetry(db, server)
            _close_metrics_sink(db, sink, error=True)
            raise
        _stop_telemetry(db, server)
        _close_metrics_sink(db, sink)
        return rc

    if args.command == "explain":
        db = _build_db(args)
        index = db.build_index(args.index)
        config = WorkloadConfig(
            num_queries=args.query + 1,
            num_keywords=args.keywords,
            delta_max=args.delta_max,
            k=args.k,
            lambda_=args.lambda_,
            seed=args.workload_seed,
        )
        if args.method == "sk":
            query = generate_sk_queries(db, config)[args.query]
        else:
            query = generate_diversified_queries(db, config)[args.query]
        slow_threshold = None
        if args.slow_ms is not None or args.slow_nodes is not None:
            from .obs.slowlog import SlowQueryThreshold

            slow_threshold = SlowQueryThreshold(
                latency_seconds=(
                    args.slow_ms / 1e3 if args.slow_ms is not None else None
                ),
                visited_nodes=args.slow_nodes,
            )
        report = db.explain(
            index, query,
            method=args.method if args.method != "sk" else "com",
            enable_pruning=not args.no_pruning,
            slow_threshold=slow_threshold,
        )
        print(report.render())
        if args.trace:
            from .obs.export import write_chrome_trace

            write_chrome_trace(args.trace, [report.trace])
            print(f"Wrote the trace to {args.trace} "
                  "(load at https://ui.perfetto.dev)", file=sys.stderr)
        return 0

    if args.command == "slowlog":
        import json

        from .obs.slowlog import render_record

        path = Path(args.path)
        if not path.exists():
            print(f"error: {path} does not exist", file=sys.stderr)
            return 1
        records = []
        skipped = 0
        with path.open(encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    skipped += 1  # truncated tail of a killed run
                    continue
                if record.get("type") in (
                    "slow_query", "slo_breach", "shadow_divergence",
                ):
                    records.append(record)
        if args.limit is not None:
            records = records[-args.limit:]
        if skipped:
            print(f"warning: skipped {skipped} malformed line(s)",
                  file=sys.stderr)
        if not records:
            print("no slow-query records found")
            return 0
        for record in records:
            print(render_record(record))
            print()
        print(f"{len(records)} record(s) rendered from {path}",
              file=sys.stderr)
        return 0

    if args.command == "replay":
        from .workloads.replay import (
            ReplayConfig,
            load_flight_journal,
            run_replay,
        )

        path = Path(args.path)
        if not path.exists():
            print(f"error: {path} does not exist", file=sys.stderr)
            return 1
        journal = load_flight_journal(path)
        if journal.header is None:
            print(f"error: {path} has no flight_header record — was it "
                  "written with --record?", file=sys.stderr)
            return 2
        if not journal.queries:
            print(f"error: {path} contains no flight records",
                  file=sys.stderr)
            return 2
        header = journal.header
        profile = header.get("profile")
        if profile not in PROFILES:
            print(f"error: unknown dataset profile {profile!r} in journal "
                  "header", file=sys.stderr)
            return 2
        overrides = {}
        if header.get("seed") is not None:
            overrides["seed"] = header["seed"]
        scale = header.get("scale", 1.0)
        print(f"Rebuilding {profile} (scale {scale}) from journal header...",
              file=sys.stderr)
        db = build_dataset(profile, scale=scale, **overrides)
        backend = args.backend or header.get("distance_backend") or "dijkstra"
        db.use_distance_backend(backend)
        sink = _attach_metrics_sink(db, args)
        try:
            config = ReplayConfig(
                backend=backend,
                workers=args.workers,
                limit=args.limit,
            )
            report = run_replay(db, journal, config, journal_path=str(path))
            print(report.render())
        except BaseException:
            _close_metrics_sink(db, sink, error=True)
            raise
        _close_metrics_sink(db, sink)
        return 0 if report.passed else 1

    if args.command == "loadtest":
        from .obs.slo import SLOSpec
        from .workloads.loadtest import LoadTestConfig, run_loadtest

        db = _build_db(args)
        sink = _attach_metrics_sink(db, args)
        _enable_tracing(db, args)
        _enable_slow_log(db, args)
        _enable_recorder(db, args)
        _enable_shadow(db, args)
        server = _start_telemetry(db, args)
        profiler = None
        if args.profile_out:
            profiler = db.enable_profiler(hz=args.profile_hz)
        try:
            if args.distance_cache is not None:
                db.use_shared_distance_cache(max_entries=args.distance_cache)
            index = db.build_index(args.index)
            config = _config(args, k=args.k, lambda_=args.lambda_)
            if args.method == "sk":
                queries = generate_sk_queries(db, config)
            else:
                queries = generate_diversified_queries(db, config)
            spec = None
            if args.slo:
                import json

                with open(args.slo, encoding="utf-8") as fh:
                    spec = SLOSpec.from_dict(json.load(fh))
            lt_config = LoadTestConfig(
                qps=args.qps,
                duration_seconds=args.duration,
                workers=args.workers,
                method=args.method,
            )
            report = run_loadtest(
                db, index, queries, lt_config,
                slo_spec=spec, label=f"{args.profile}/{args.index}",
            )
            print_table(
                [report.row()],
                f"Load test on {args.profile} "
                f"({args.qps:g} qps offered for {args.duration:g}s)",
            )
            if spec is not None:
                verdict = report.slo or {}
                for check in verdict.get("checks", ()):
                    rule = check.get("rule", {})
                    value = check.get("value")
                    shown = (f"{value:.6g}"
                             if isinstance(value, (int, float)) else "no data")
                    status = ("SKIP" if check.get("no_data")
                              else "PASS" if check.get("passed") else "FAIL")
                    print(f"  {status}  {rule.get('name', '?')}: "
                          f"{rule.get('metric', '?')} = {shown} "
                          f"(want {rule.get('op', '?')} "
                          f"{rule.get('threshold', '?')})")
                print(
                    f"Live SLO [{verdict.get('spec', '?')}]: "
                    f"{verdict.get('evaluations', 0)} window evaluations, "
                    f"{verdict.get('breach_windows', 0)} in breach — "
                    f"{'PASS' if report.slo_passed else 'FAIL'}",
                    file=sys.stderr,
                )
            if profiler is not None:
                db.disable_profiler()
                profiler.write_folded(args.profile_out)
                pstats = profiler.stats()
                print(f"Wrote {pstats['samples']} profile samples "
                      f"({pstats['distinct_stacks']} stacks) to "
                      f"{args.profile_out} (render with `repro profile`)",
                      file=sys.stderr)
                profiler = None
            _write_observability(db, args)
            _report_slow_log(db)
            _finish_recorder(db)
            rc = 0 if report.slo_passed else 1
            if rc:
                print("live SLO gate FAILED", file=sys.stderr)
            rc = rc or _report_shadow(db, args)
        except BaseException:
            if profiler is not None:
                db.disable_profiler()
            db.disable_flight_recorder()
            _stop_telemetry(db, server)
            _close_metrics_sink(db, sink, error=True)
            raise
        _stop_telemetry(db, server)
        _close_metrics_sink(db, sink)
        return rc

    if args.command == "profile":
        from .obs.profiler import parse_folded, render_profile

        path = Path(args.path)
        if not path.exists():
            print(f"error: {path} does not exist", file=sys.stderr)
            return 1
        with path.open(encoding="utf-8") as fh:
            table = parse_folded(fh)
        if not table:
            print("no profile samples found")
            return 0
        print(render_profile(table, top=args.top))
        return 0

    if args.command == "bench" and args.bench_command == "compare":
        from .bench.compare import (
            compare_trajectories,
            load_trajectory,
            presence_changes,
            render_comparison,
        )

        try:
            old_doc = load_trajectory(args.old)
            new_doc = load_trajectory(args.new)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        deltas = compare_trajectories(old_doc, new_doc)
        presence = presence_changes(old_doc, new_doc)
        threshold = (
            args.fail_on_regression
            if args.fail_on_regression is not None
            else args.threshold
        )
        print(render_comparison(deltas, threshold, presence=presence))
        if args.fail_on_regression is not None and any(
            d.is_regression(args.fail_on_regression) for d in deltas
        ):
            print("benchmark regression gate FAILED", file=sys.stderr)
            return 1
        return 0

    return 1  # pragma: no cover — argparse enforces the choices


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
