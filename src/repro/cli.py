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

Flags are declared once, in groups (``build_parser``), one group per
distinct set of takers; a subcommand accepts exactly the groups it
lists, and ``--help`` documents each flag.  The five workload commands
(``sk`` ``diversify`` ``update`` ``compare`` ``loadtest``) take the
first four groups, and ``_workload_run`` installs and tears down what
those flags ask for:

``dataset``      ``profile`` ``--scale`` ``--seed`` (also ``info``
                 ``generate`` ``explain``)
``query``        ``--distance-backend`` ``--keywords`` ``--delta-max``
                 ``--workload-seed`` ``--slow-ms`` ``--slow-nodes``
                 (also ``explain``)
``workers``      ``--workers`` (also ``replay``)
``run``          ``--queries`` ``--metrics`` ``--prom`` ``--trace``
                 (span trees, for ``--slowlog`` to capture)
                 ``--slowlog`` ``--slo`` ``--telemetry-port``
                 ``--record``
``index``        ``--index`` (workloads but ``compare``; ``explain``)
``diversified``  ``--k`` ``--lambda`` (``diversify`` ``update``
                 ``loadtest`` ``explain``)
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace
from typing import List, Optional

from .bench.reporting import print_table
from .core.database import INDEX_KINDS, Database
from .network.distance import DISTANCE_BACKENDS
from .datasets.catalog import PROFILES, build_dataset
from .datasets.io import save_dataset
from .obs import (
    JsonLinesSink,
    SLOMonitor,
    SLOSpec,
    SlowQueryThreshold,
    database_gauges,
    render_check,
    render_record,
    write_prometheus,
)
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
    """A finite float > 0.  Guards rate-style flags (``--qps``,
    ``--duration``): zero or negative values would busy-loop or crash
    the load driver long after parsing, so reject them up front."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number")
    if not value > 0 or math.isinf(value):
        raise argparse.ArgumentTypeError(
            "must be a positive finite number"
        )
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

    Validated at parse time so a typo in ``--prom``/``--metrics``/
    ``--slowlog`` fails before minutes of workload run, not after.
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

    def group() -> argparse.ArgumentParser:
        """One slice of flags, declared once; every subcommand that
        lists it in ``parents`` accepts exactly these."""
        return argparse.ArgumentParser(add_help=False)

    dataset = group()
    dataset.add_argument(
        "profile", choices=sorted(PROFILES), help="dataset profile"
    )
    dataset.add_argument("--scale", type=float, default=1.0,
                         help="proportional dataset scale (default 1.0)")
    dataset.add_argument("--seed", type=int, default=None,
                         help="override the profile's generator seed")

    query = group()  # every command that runs generated queries
    query.add_argument(
        "--distance-backend", choices=DISTANCE_BACKENDS, default="csgraph",
        help="exact pairwise-distance backend: bounded Dijkstras in C "
             "over the in-memory network (default, no pairwise page "
             "reads), the same as a Python loop through the CCAM pages "
             "('dijkstra', the paper's I/O model), or 2-hop hub labels "
             "('hub') — identical answers",
    )
    query.add_argument("--keywords", type=int, default=3, metavar="L")
    query.add_argument("--delta-max", type=float, default=None)
    query.add_argument("--workload-seed", type=int, default=101)
    query.add_argument(
        "--slow-ms", type=float, default=None, metavar="MS",
        help="latency threshold, milliseconds: a workload captures "
             "queries whose wall time reaches it in the slow-query log; "
             "`explain` adds a SLOW/OK verdict to its report",
    )
    query.add_argument(
        "--slow-nodes", type=_positive_int, default=None, metavar="N",
        help="the same for queries whose expansion visited at least N "
             "network nodes",
    )

    index = group()
    index.add_argument("--index", choices=INDEX_KINDS, default="sif")

    diversified = group()
    diversified.add_argument("--k", type=int, default=6)
    diversified.add_argument(
        "--lambda", dest="lambda_", type=float, default=0.8
    )

    workers = group()
    workers.add_argument(
        "--workers", type=_positive_int, default=1, metavar="N",
        help="run the queries on N query-engine threads (default 1 = "
             "serial; answers do not change); tracing and the "
             "slow-query log compose with concurrency",
    )

    run = group()  # what only a whole workload run takes
    run.add_argument("--queries", type=int, default=50)
    run.add_argument(
        "--metrics", metavar="PATH", default=None, type=_output_path,
        help="write per-query metric records (JSON lines) to PATH",
    )
    run.add_argument(
        "--prom", metavar="PATH", default=None, type=_output_path,
        help="write a Prometheus text exposition of the final "
             "metrics registry (plus buffer/index gauges) to PATH",
    )
    run.add_argument(
        "--trace", action="store_true",
        help="trace every query: each one a slow-query log captures "
             "(--slowlog, /slowlog?trace=1) then carries its span "
             "tree, which `repro slowlog` narrates; writes nothing "
             "itself and costs about 1.2-1.4 x per query",
    )
    run.add_argument(
        "--slowlog", metavar="PATH", default=None, type=_output_path,
        help="persist captured slow queries as JSON lines to PATH "
             "(with no --slow-ms/--slow-nodes, captures every "
             "query); render with `repro slowlog PATH`",
    )
    run.add_argument(
        "--slo", metavar="SPEC", default=None,
        help="evaluate the SLO spec (JSON) against the final "
             "metrics snapshot (`loadtest`: continuously, against a "
             "sliding window); exit non-zero on violation",
    )
    run.add_argument(
        "--telemetry-port", type=_port, default=None, metavar="PORT",
        help="serve live telemetry over HTTP on 127.0.0.1:PORT for "
             "the duration of the run (/metrics; GET / lists the "
             "other routes); 0 picks a free port",
    )

    run.add_argument(
        "--record", metavar="PATH", default=None, type=_output_path,
        help="flight-record every executed query (parameters, plan "
             "label, result digest, stats) plus committed updates "
             "as JSON lines to PATH; re-execute and audit with "
             "`repro replay PATH`",
    )

    #: What every workload command takes (and ``_workload_run`` reads).
    workload = [dataset, query, workers, run]

    def command(name, func, parents=(), **kwargs):
        p = sub.add_parser(name, parents=list(parents), **kwargs)
        p.set_defaults(func=func)
        return p

    command("info", _cmd_info, [dataset], help="dataset statistics")

    p = command("generate", _cmd_generate, [dataset],
                help="save a dataset snapshot")
    p.add_argument("--out", required=True, help="output JSON path")

    command("sk", _cmd_sk, workload + [index],
            help="SK workload against one index")

    command("diversify", _cmd_diversify,
            workload + [index, diversified],
            help="diversified workload, SEQ and COM")

    p = command(
        "update", _cmd_update, workload + [index, diversified],
        help="mixed update+query workload against a live database",
    )
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

    command("compare", _cmd_compare, workload,
            help="one workload, every index kind")

    p = command(
        "explain", _cmd_explain,
        [dataset, query, index, diversified],
        help="run one query under tracing and print its pruning report",
    )
    p.add_argument(
        "--method", choices=("com", "seq", "sk"), default="com",
        help="query form: diversified via COM or SEQ, or a plain SK "
             "range query (default com)",
    )
    p.add_argument(
        "--query", type=int, default=0, metavar="N",
        help="explain the N-th query of the generated workload "
             "(default 0)",
    )
    p.add_argument(
        "--no-pruning", action="store_true",
        help="disable the COM diversity bounds (ablation)",
    )

    p = command(
        "slowlog", _cmd_slowlog,
        help="render a persisted slow-query log (JSON lines) as text",
    )
    p.add_argument("path", help="JSON-lines file written by --slowlog")
    p.add_argument(
        "--limit", type=_positive_int, default=None, metavar="N",
        help="render only the last N records",
    )

    p = command(
        "loadtest", _cmd_loadtest, workload + [index, diversified],
        help="drive sustained QPS (open loop) gated by a live SLO",
    )
    p.add_argument(
        "--method", choices=("seq", "com", "sk"), default="seq",
        help="query form driven at rate (default seq)",
    )
    p.add_argument(
        "--qps", type=_positive_float, default=20.0, metavar="RATE",
        help="offered arrival rate, queries/second (default 20)",
    )
    p.add_argument(
        "--duration", type=_positive_float, default=10.0, metavar="SECONDS",
        help="how long to sustain the rate (default 10)",
    )

    p = command(
        "replay", _cmd_replay, [workers],
        help="re-execute a --record flight journal; report divergences",
    )
    p.add_argument("path", help="JSON-lines flight journal from --record")
    p.add_argument(
        "--backend", choices=DISTANCE_BACKENDS, default=None,
        help="replay on this distance backend instead of the recorded "
             "one (cross-backend audit: identical digests expected)",
    )
    p.add_argument(
        "--limit", type=_positive_int, default=None, metavar="N",
        help="replay only the first N recorded queries",
    )

    return parser


def _build_db(
    profile: str, scale: float, seed: Optional[int], origin: str = ""
) -> Database:
    """Build the profile's dataset; ``seed`` overrides its generator seed."""
    print(f"Building {profile} (scale {scale}){origin}...", file=sys.stderr)
    overrides = {} if seed is None else {"seed": seed}
    return build_dataset(profile, scale=scale, **overrides)


def _config(args, num_queries: int, **extra) -> WorkloadConfig:
    return WorkloadConfig(
        num_queries=num_queries,
        num_keywords=args.keywords,
        delta_max=args.delta_max,
        seed=args.workload_seed,
        **extra,
    )


def _slow_threshold(args) -> Optional[SlowQueryThreshold]:
    """The ``--slow-ms`` / ``--slow-nodes`` pair, or ``None``."""
    if args.slow_ms is None and args.slow_nodes is None:
        return None
    return SlowQueryThreshold(
        latency_seconds=(
            args.slow_ms / 1e3 if args.slow_ms is not None else None
        ),
        visited_nodes=args.slow_nodes,
    )


def _load_slo(path: str) -> SLOSpec:
    with open(path, encoding="utf-8") as fh:
        return SLOSpec.from_dict(json.load(fh))


def _check_slo(db, spec_path: Optional[str]) -> int:
    """Evaluate ``--slo`` (when given); the command's exit code."""
    if not spec_path:
        return 0
    spec = _load_slo(spec_path)
    checks = SLOMonitor(spec, db.metrics.snapshot).evaluate()
    print(f"SLO {spec.name}:")
    for check in checks:
        print(f"  {render_check(check)}")
    failed = [c for c in checks if not c["passed"]]
    if failed:
        print(f"SLO VIOLATED: {len(failed)} of {len(checks)} objectives "
              "failed", file=sys.stderr)
        return 1
    return 0


def _report_run(db, args) -> None:
    """What a finished workload prints and writes, before teardown."""
    if args.prom:
        write_prometheus(args.prom, db.metrics, gauges=database_gauges(db))
        print(f"Wrote Prometheus exposition to {args.prom}", file=sys.stderr)
    log = db.slow_query_log
    if log is not None:
        summary = log.summary()
        line = (f"Slow-query log: captured {summary['captured']} of "
                f"{summary['observed']} queries")
        if log.path is not None:
            line += f" → {log.path}"
        print(line, file=sys.stderr)
    recorder = db.flight_recorder
    if recorder is not None:
        summary = recorder.summary()
        line = (f"Flight recorder: captured {summary['observed']} queries + "
                f"{summary['updates']} updates")
        if recorder.path is not None:
            line += f" → {recorder.path} (audit with `repro replay`)"
        print(line, file=sys.stderr)


def _close_run(db, sink, snapshot: bool) -> None:
    """Close everything ``_workload_run`` may have opened.

    Every step is a no-op when its feature was never installed.  The
    telemetry server goes first — a scrape must not find a log it
    reads half torn down — and the metrics sink last, so a raising
    query still leaves a closed, flushed JSON-lines file behind.
    ``snapshot`` appends the final registry snapshot first (a run that
    raised has none).
    """
    db.stop_telemetry()
    db.disable_slow_query_log()
    db.disable_flight_recorder()
    if sink is None:
        return
    try:
        if snapshot:
            record = db.metrics.snapshot()
            record["type"] = "snapshot"
            db.metrics.emit(record)
    finally:
        db.metrics.remove_sink(sink)
        sink.close()
    print(f"Wrote {sink.records_written} metric records to {sink.path}",
          file=sys.stderr)


@contextmanager
def _workload_run(
    args, index: Optional[str] = None, *, slo_at_end: bool = True
):
    """Set one workload command up, and tear it down, in one place.

    Builds the database and installs what the shared workload flags ask
    for — metrics sink, tracing, slow-query log, flight recorder,
    telemetry server.  The ``with`` body runs the workload against
    ``run.db`` and may set ``run.rc``.  On success the run is reported
    (the ``--prom`` file, capture summaries) and ``run.rc`` becomes the
    first failing of: the body's own code, ``--slo`` against the final
    snapshot (``slo_at_end``; ``loadtest`` gates on its live windows
    instead).  On every exit path, an exception included, everything
    opened here is closed.
    """
    db = _build_db(args.profile, args.scale, args.seed)
    db.use_distance_backend(args.distance_backend)
    run = SimpleNamespace(db=db, rc=0)
    sink = None
    try:
        if args.metrics:
            sink = JsonLinesSink(args.metrics)
            db.metrics.add_sink(sink)
        if args.trace:
            db.enable_tracing()
        threshold = _slow_threshold(args)
        if threshold is None and args.slowlog is not None:
            # --slowlog with neither threshold captures *every* query
            # (a zero-latency threshold): the deterministic smoke mode.
            threshold = SlowQueryThreshold(latency_seconds=0.0)
        if threshold is not None:
            db.enable_slow_query_log(
                latency_seconds=threshold.latency_seconds,
                visited_nodes=threshold.visited_nodes,
                path=args.slowlog,
            )
        if args.record:
            # The header is everything `repro replay` needs to rebuild
            # the run: dataset profile/scale/seed, backend, start epoch.
            db.enable_flight_recorder(path=args.record).set_header(
                command=args.command,
                profile=args.profile,
                scale=args.scale,
                seed=args.seed,
                index=index,
                distance_backend=db.distance_backend,
                workers=args.workers,
                data_version=db.data_version,
            )
        if args.telemetry_port is not None:
            # Up before the workload, so an external scraper watches
            # counters advance while queries run.
            server = db.serve_telemetry(port=args.telemetry_port)
            print(f"Telemetry: {server.url}/metrics ({server.url}/ lists "
                  f"the other routes)", file=sys.stderr)
        yield run
        _report_run(db, args)
        if slo_at_end and not run.rc:
            run.rc = _check_slo(db, args.slo)
    except BaseException:
        _close_run(db, sink, snapshot=False)
        raise
    _close_run(db, sink, snapshot=True)


def _cmd_info(args) -> int:
    db = _build_db(args.profile, args.scale, args.seed)
    print_table([db.dataset_statistics()], f"Dataset {args.profile}")
    return 0


def _cmd_generate(args) -> int:
    db = _build_db(args.profile, args.scale, args.seed)
    save_dataset(db.store, args.out)
    print(f"Wrote {args.out}")
    return 0


def _cmd_sk(args) -> int:
    with _workload_run(args, args.index) as run:
        db = run.db
        index = db.build_index(args.index)
        queries = generate_sk_queries(db, _config(args, args.queries))
        report = run_sk_workload(db, index, queries, workers=args.workers)
        print_table([report.row()], f"SK workload on {args.profile}")
    return run.rc


def _diversified_queries(db, args):
    return generate_diversified_queries(
        db, _config(args, args.queries, k=args.k, lambda_=args.lambda_)
    )


def _cmd_diversify(args) -> int:
    with _workload_run(args, args.index) as run:
        db = run.db
        index = db.build_index(args.index)
        queries = _diversified_queries(db, args)
        rows = []
        for method in ("seq", "com"):
            rows.append(
                run_diversified_workload(
                    db, index, queries, method=method, workers=args.workers,
                ).row()
            )
        print_table(rows, f"Diversified workload on {args.profile} "
                          f"(k={args.k}, lambda={args.lambda_})")
    return run.rc


def _cmd_update(args) -> int:
    from .workloads.updates import UpdateWorkloadConfig, run_update_workload

    with _workload_run(args, args.index) as run:
        db = run.db
        index = db.build_index(args.index)
        update_config = UpdateWorkloadConfig(
            updates_per_batch=args.updates_per_batch,
            num_batches=args.batches,
            insert_weight=args.insert_weight,
            delete_weight=args.delete_weight,
            edge_weight_weight=args.edge_weight_weight,
            seed=args.update_seed,
        )
        report = run_update_workload(
            db, index, _diversified_queries(db, args), update_config,
            method=args.method, workers=args.workers,
        )
        print_table(
            [report.row()],
            f"Mixed update workload on {args.profile} "
            f"(epoch {report.final_epoch})",
        )
    return run.rc


def _cmd_compare(args) -> int:
    with _workload_run(args) as run:
        db = run.db
        queries = generate_sk_queries(db, _config(args, args.queries))
        rows = []
        for kind in ("ir", "if", "sif", "sif-p"):
            index = db.build_index(kind)
            report = run_sk_workload(db, index, queries, workers=args.workers)
            row = report.row()
            row["build_s"] = round(index.build_seconds, 2)
            row["size_KiB"] = index.size_bytes() // 1024
            rows.append(row)
        print_table(rows, f"Index comparison on {args.profile}")
    return run.rc


def _cmd_explain(args) -> int:
    db = _build_db(args.profile, args.scale, args.seed)
    db.use_distance_backend(args.distance_backend)
    index = db.build_index(args.index)
    config = _config(args, args.query + 1, k=args.k, lambda_=args.lambda_)
    if args.method == "sk":
        query = generate_sk_queries(db, config)[args.query]
    else:
        query = generate_diversified_queries(db, config)[args.query]
    report = db.explain(
        index, query,
        method=args.method if args.method != "sk" else "com",
        enable_pruning=not args.no_pruning,
        slow_threshold=_slow_threshold(args),
    )
    print(report.render())
    return 0


def _cmd_slowlog(args) -> int:
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
            if record.get("type") in ("slow_query", "slo_breach"):
                records.append(record)
    if args.limit is not None:
        records = records[-args.limit:]
    if skipped:
        print(f"warning: skipped {skipped} malformed line(s)", file=sys.stderr)
    if not records:
        print("no slow-query records found")
        return 0
    for record in records:
        print(render_record(record))
        print()
    print(f"{len(records)} record(s) rendered from {path}", file=sys.stderr)
    return 0


def _cmd_replay(args) -> int:
    from .workloads.replay import (
        ReplayConfig,
        journal_backend,
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
        print(f"error: {path} contains no flight records", file=sys.stderr)
        return 2
    header = journal.header
    profile = header.get("profile")
    if profile not in PROFILES:
        print(f"error: unknown dataset profile {profile!r} in journal "
              "header", file=sys.stderr)
        return 2
    recorded = journal_backend(header)
    if recorded is None:
        print(f"error: unknown distance backend "
              f"{header['distance_backend']!r} in journal header",
              file=sys.stderr)
        return 2
    db = _build_db(
        profile, header.get("scale", 1.0), header.get("seed"),
        origin=" from journal header",
    )
    db.use_distance_backend(args.backend or recorded)
    config = ReplayConfig(workers=args.workers, limit=args.limit)
    report = run_replay(db, journal, config, journal_path=str(path))
    print(report.render())
    return 0 if report.passed else 1


def _cmd_loadtest(args) -> int:
    from .workloads.loadtest import LoadTestConfig, run_loadtest

    with _workload_run(args, args.index, slo_at_end=False) as run:
        db = run.db
        index = db.build_index(args.index)
        if args.method == "sk":
            queries = generate_sk_queries(db, _config(args, args.queries))
        else:
            queries = _diversified_queries(db, args)
        spec = _load_slo(args.slo) if args.slo else None
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
                print(f"  {render_check(check)}")
            print(
                f"Live SLO [{verdict.get('spec', '?')}]: "
                f"{verdict.get('evaluations', 0)} window evaluations, "
                f"{verdict.get('breach_windows', 0)} in breach — "
                f"{'PASS' if report.slo_passed else 'FAIL'}",
                file=sys.stderr,
            )
        if not report.slo_passed:
            print("live SLO gate FAILED", file=sys.stderr)
            run.rc = 1
    return run.rc


def main(argv: Optional[List[str]] = None) -> int:
    """Parse ``argv`` and run the subcommand it names (its ``func``)."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
