"""One workload in one process: set-up, passes, verification.

``perf/run.py`` starts this file in a fresh interpreter (hash seed and
BLAS threads pinned) once per measurement and reads the JSON object on
the last line of its output.  Three modes:

``setup``   build the dataset and the index, warm up, report the time;
``timed``   the same, then the timed passes with probes off — every
            end-to-end metric except the median of ``setup_s``;
``traced``  an untraced reference pass and a traced pass over the same
            operations on two identically built databases — every
            per-layer metric.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from perf import stats, verify  # noqa: E402
from perf.probes import REBUILT, ProbeSet, SpanTracker, resolve  # noqa: E402
from perf.speed import SpeedGauge  # noqa: E402
from perf.workloads import (  # noqa: E402
    UPDATE_KINDS, WORKLOADS, Catalogue, Op, generate, ops_for,
)

DATASET = "SYN"
INDEX_KIND = "sif"
#: Operations run untimed at the end of set-up, so lazy structures (the
#: CSR snapshot, signature memo rows, the LRU buffer) exist before timing.
WARMUP_OPS = 20
#: The independent oracle recomputes every this-many-th query.
ORACLE_EVERY = 25
TIMED_PASSES = 3
#: The workload whose largest candidate pools are replayed through each
#: distance backend, and how many of them.
BACKEND_PROBE_WORKLOAD = "div_wide"
BACKEND_PROBE_POOLS = 12
BACKENDS = ("dijkstra", "ch", "hub")


def library_versions() -> Dict[str, str]:
    import numpy
    import scipy
    return {
        "python": ".".join(map(str, sys.version_info[:3])),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


@dataclass
class State:
    """A database as set-up leaves it, and what set-up cost."""

    db: object
    index: object
    catalogue: Catalogue
    setup: Dict[str, float]


def set_up(spec, seed: int, scale: float) -> State:
    """Phase 1: imports, dataset, index, warm-up — timed as ``setup_s``.

    Each phase is reported at the reference speed (see
    :mod:`perf.speed`): a burst of gauge samples is taken at every
    phase boundary and a phase is scaled by the two bursts around it.
    Reading the catalogue and generating the warm-up operations is the
    harness's own work and is left out of the figure.
    """
    gauge = SpeedGauge()
    phases: Dict[str, float] = {}
    raw = 0.0

    def phase(name: str, before: float, started: float) -> float:
        nonlocal raw
        elapsed = time.perf_counter() - started
        after = gauge.burst()
        raw += elapsed
        phases[name] = elapsed / ((before + after) / 2.0)
        return after

    slow = gauge.burst()
    t = time.perf_counter()
    from repro.datasets.catalog import build_dataset
    slow = phase("import_s", slow, t)
    t = time.perf_counter()
    db = build_dataset(DATASET, scale=scale)
    slow = phase("datasets.build_s", slow, t)
    t = time.perf_counter()
    index = db.build_index(INDEX_KIND)
    phase("index.build_s", slow, t)
    catalogue = Catalogue.of_database(db)
    warmup = generate(spec, catalogue, seed, WARMUP_OPS, purpose="warmup")
    slow = gauge.burst()
    t = time.perf_counter()
    for op in warmup:
        apply_op(db, index, op)
    phase("setup.warmup_s", slow, t)
    phases["setup_s"] = sum(phases.values())
    phases["setup_raw_s"] = raw
    return State(db, index, catalogue, phases)


def position_of(db, op: Op):
    from repro.network.graph import NetworkPosition
    return NetworkPosition(
        op.edge_id, op.fraction * db.network.edge(op.edge_id).weight
    )


def apply_op(db, index, op: Op, tracker: Optional[SpanTracker] = None):
    """Run one operation at the facade; returns ``(seconds, result)``.

    The timed region is exactly the facade call a caller waits for:
    plan + execute + bookkeeping for a query, the whole update for an
    update.  Building the query object is the caller's work.
    """
    if op.kind == "sk":
        from repro.core.queries import SKQuery
        query = SKQuery(position_of(db, op), op.terms, op.delta_max)
        call = lambda: db.sk_search(index, query)  # noqa: E731
    elif op.kind == "div":
        from repro.core.queries import DiversifiedSKQuery
        query = DiversifiedSKQuery(
            position_of(db, op), op.terms, op.delta_max, op.k, op.lambda_
        )
        call = lambda: db.diversified_search(index, query, method=None)  # noqa: E731
    elif op.kind == "insert":
        position = position_of(db, op)
        call = lambda: db.insert_object(position, op.terms, indexes=(index,))  # noqa: E731
    elif op.kind == "delete":
        call = lambda: db.delete_object(op.object_id, indexes=(index,))  # noqa: E731
    elif op.kind == "edge_weight":
        weight = db.network.edge(op.edge_id).weight * op.factor
        call = lambda: db.update_edge_weight(op.edge_id, weight, indexes=(index,))  # noqa: E731
    else:
        raise ValueError(f"unknown operation kind {op.kind!r}")
    if tracker is None:
        started = time.perf_counter()
        result = call()
        return time.perf_counter() - started, result
    started = tracker.begin("facade")
    try:
        result = call()
    finally:
        seconds = tracker.end("facade", started)
    return seconds, result


@dataclass
class PassRecord:
    """Everything one pass over a slice of the stream produced."""

    #: Seconds at the reference speed (see :mod:`perf.speed`).
    query_seconds: List[float] = field(default_factory=list)
    update_seconds: Dict[str, List[float]] = field(default_factory=dict)
    #: The same operations as the clock read them, and how much slower
    #: than the reference the box ran over the pass (median).
    raw_seconds: float = 0.0
    slowdown: float = 1.0
    counts: Dict[str, float] = field(default_factory=dict)
    reads_by_category: Dict[str, int] = field(default_factory=dict)
    candidates: List[int] = field(default_factory=list)
    objectives: List[float] = field(default_factory=list)
    digests: Dict[int, str] = field(default_factory=dict)
    spans: Dict[str, List[float]] = field(default_factory=dict)
    update_spans: Dict[str, List[float]] = field(default_factory=dict)
    pools: List[list] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)

    def add(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def fail(self, index: int, op: Op, problems: List[str]) -> None:
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(f"op {index} ({op.kind}): {problems[0]}")

    @property
    def busy_seconds(self) -> float:
        return sum(self.query_seconds) + sum(
            sum(v) for v in self.update_seconds.values()
        )

    @property
    def operations(self) -> int:
        return len(self.query_seconds) + sum(
            len(v) for v in self.update_seconds.values()
        )


#: QueryStats fields summed per pass (all per-query deltas).
STAT_COUNTS = (
    "nodes_accessed", "edges_accessed", "objects_loaded", "false_hit_objects",
    "pairwise_dijkstras", "theta_evaluations", "distance_cache_hits",
    "distance_cache_misses", "buffer_evictions", "backend_queries",
    "backend_settled_nodes",
)
#: LoadCounters fields, read as a lifetime delta over the pass.
INDEX_COUNTS = ("edges_pruned_by_signature", "signature_tests_run")


#: ``[calls, inclusive_s, self_s]`` of a span that never ran.
NO_SPAN = (0, 0.0, 0.0)


def _fold(into: Dict[str, List[float]], bucket: Dict[str, List[float]],
          slowdown: float = 1.0) -> None:
    for name, (calls, inclusive, own) in bucket.items():
        slot = into.setdefault(name, [0, 0.0, 0.0])
        slot[0] += calls
        slot[1] += inclusive / slowdown
        slot[2] += own / slowdown


def run_pass(state: State, ops: List[Op], first_index: int,
             golden: Optional[List[str]] = None,
             tracker: Optional[SpanTracker] = None) -> PassRecord:
    """Closed loop, one client: the next operation starts when the
    previous one has returned and been checked."""
    db, index = state.db, state.index
    record = PassRecord()
    gauge = SpeedGauge()
    #: Per operation: ``(kind, seconds, span bucket)``; ``None`` if it failed.
    timings: List[Optional[tuple]] = []
    oracle, oracle_version = None, None
    index_before = {n: getattr(index.lifetime_counters, n, 0) for n in INDEX_COUNTS}
    for offset, op in enumerate(ops):
        i = first_index + offset
        record.attempted += 1
        gauge.sample()
        if tracker is not None:
            tracker.new_bucket()
            tracker.capture = [] if op.is_query else None
        try:
            seconds, result = apply_op(db, index, op, tracker)
        except Exception as exc:  # the benchmark must report, not stop
            record.fail(i, op, [f"raised {type(exc).__name__}: {exc}"])
            timings.append(None)
            continue
        timings.append((op.kind, seconds, tracker.bucket if tracker else None))
        if not op.is_query:
            continue
        stream = None
        if tracker is not None:
            stream, tracker.capture = tracker.capture, None
            if len(stream) >= 2:
                record.pools.append(
                    [(it.object.position, op.delta_max) for it in stream]
                )
        _collect(record, op, result)

        problems = verify.check_invariants(op, result)
        digest = verify.result_digest(result)
        record.digests[i] = digest
        if golden is not None and i < len(golden) and golden[i] != digest:
            problems.append(f"digest {digest} differs from golden {golden[i]}")
        if i % ORACLE_EVERY == 0:
            if oracle_version != db.data_version:
                oracle = verify.Oracle.of_database(db)
                oracle_version = db.data_version
            problems += verify.check_against_oracle(
                oracle, op, position_of(db, op), result, stream
            )
        if problems:
            record.fail(i, op, problems)
    for name, before in index_before.items():
        record.add(name, getattr(index.lifetime_counters, name, 0) - before)

    slowdowns = gauge.slowdowns()
    record.slowdown = statistics.median(slowdowns)
    for timing, slowdown in zip(timings, slowdowns):
        if timing is None:
            continue
        kind, seconds, bucket = timing
        record.raw_seconds += seconds
        if kind in UPDATE_KINDS:
            record.update_seconds.setdefault(kind, []).append(seconds / slowdown)
            spans = record.update_spans
        else:
            record.query_seconds.append(seconds / slowdown)
            spans = record.spans
        if bucket is not None:
            _fold(spans, bucket, slowdown)
    return record


def _collect(record: PassRecord, op: Op, result) -> None:
    s = result.stats
    for name in STAT_COUNTS:
        record.add(name, getattr(s, name, 0))
    if s.io is not None:
        record.add("logical_reads", s.io.logical_reads)
        record.add("physical_reads", s.io.physical_reads)
        record.add("buffer_hits", s.io.buffer_hits)
        for category, n in s.io.physical_by_category.items():
            record.reads_by_category[category] = (
                record.reads_by_category.get(category, 0) + n
            )
    record.candidates.append(s.candidates)
    if op.kind == "div":
        record.objectives.append(result.objective_value)
        record.add("early_terminations", bool(s.expansion_terminated_early))
        record.add("seq_plans", result.method == "SEQ")


def _ratio(num: float, den: float) -> Optional[float]:
    return num / den if den else None


def _ms(seconds: float, n: int) -> Optional[float]:
    return seconds * 1e3 / n if n else None


# ----------------------------------------------------------------------
# Modes
# ----------------------------------------------------------------------
def mode_setup(args, spec) -> dict:
    return {"setup": set_up(spec, args.seed, args.scale).setup}


def mode_timed(args, spec) -> dict:
    state = set_up(spec, args.seed, args.scale)
    per_pass = ops_for(spec, args.seconds, args.passes)
    stream = generate(spec, state.catalogue, args.seed, per_pass * args.passes)
    golden = None if args.write_golden else _golden(args, spec)
    records = []
    gc.collect()
    for p in range(args.passes):
        first = p * per_pass
        records.append(
            run_pass(state, stream[first:first + per_pass], first, golden)
        )
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Percentiles over every timed query of the run; the passes are
    # consecutive slices of one stream, kept apart to show drift.
    latencies = [s for r in records for s in r.query_seconds]
    busy = sum(r.busy_seconds for r in records)
    operations = sum(r.operations for r in records)
    updates = [s for r in records for v in r.update_seconds.values() for s in v]
    objectives = [f for r in records for f in r.objectives]
    tail_p, tail_value, beyond = stats.tail(latencies)
    out = {
        "setup": state.setup,
        "end_to_end": {
            "query_p50_ms": stats.percentile(latencies, 50) * 1e3,
            "query_p95_ms": stats.percentile(latencies, 95) * 1e3,
            "throughput_qps": operations / busy,
            "reads_per_query": sum(
                r.counts.get("physical_reads", 0) for r in records
            ) / len(latencies),
            "rss_mb": rss_mb,
        },
        "extra": {
            "query_samples": len(latencies),
            "p95_samples_beyond": stats.samples_beyond(len(latencies), 95),
            "tail_percentile": tail_p,
            "tail_ms": tail_value * 1e3 if tail_value is not None else None,
            "tail_samples_beyond": beyond,
            "update_mean_ms": _ms(sum(updates), len(updates)),
            "updates": len(updates),
            "objective_mean": (
                sum(objectives) / len(objectives) if objectives else None
            ),
        },
        "passes": [
            {
                "operations": r.operations,
                "query_p50_ms": stats.percentile(r.query_seconds, 50) * 1e3,
                "throughput_qps": r.operations / r.busy_seconds,
                "reads_per_query": r.counts.get("physical_reads", 0)
                / len(r.query_seconds),
                "raw_seconds": r.raw_seconds,
                "slowdown": r.slowdown,
            }
            for r in records
        ],
        "golden_compared": golden is not None,
    }
    _verdict(out, records)
    if args.write_golden:
        digests = [""] * len(stream)
        for r in records:
            for i, d in r.digests.items():
                digests[i] = d
        out["digests"] = digests
    return out


def _golden(args, spec) -> Optional[List[str]]:
    return verify.load_golden(
        Path(args.golden_dir), spec.name, args.seed, args.scale,
        library_versions(),
    )


def _verdict(out: dict, records: List[PassRecord]) -> None:
    out["attempted"] = sum(r.attempted for r in records)
    out["failed"] = sum(r.failed for r in records)
    out["failures"] = [m for r in records for m in r.failures][:10]


def mode_traced(args, spec) -> dict:
    per_pass = ops_for(spec, args.seconds, 2)
    golden = _golden(args, spec)
    # Reference: the same operations, probes off, on an identically
    # built database — the traced pass is compared with it.
    state = set_up(spec, args.seed, args.scale)
    setup_split = state.setup
    ops = generate(spec, state.catalogue, args.seed, per_pass)
    size_bytes = state.index.size_bytes()
    reference = run_pass(state, ops, 0, golden)
    del state
    gc.collect()

    tracker = SpanTracker()
    probes = ProbeSet(tracker).install()
    try:
        setup_bucket = tracker.new_bucket()
        state = set_up(spec, args.seed, args.scale)
        traced = run_pass(state, ops, 0, golden, tracker)
    finally:
        probes.uninstall()

    out = {"per_layer": per_layer_metrics(
        spec, reference, traced, probes, setup_split, setup_bucket, size_bytes
    )}
    out["per_layer"].update(backend_probe(
        state.db, traced.pools if spec.name == BACKEND_PROBE_WORKLOAD else []
    ))
    _verdict(out, [reference, traced])
    if reference.digests != traced.digests:
        out["failed"] += 1
        out["failures"].append("traced answers differ from the untraced pass")
    return out


def per_layer_metrics(spec, reference: PassRecord, traced: PassRecord,
                      probes: ProbeSet, setup_split: Dict[str, float],
                      setup_bucket: Dict[str, List[float]],
                      size_bytes: int) -> Dict[str, Optional[float]]:
    c = traced.counts
    n = len(traced.query_seconds)
    diversified = len(traced.objectives)
    spans = traced.spans

    def span_ms(name: str, which: int = 1) -> Optional[float]:
        """Mean per query of a span's inclusive (1) or self (2) time."""
        if name in probes.missing:
            return None
        return _ms(spans.get(name, NO_SPAN)[which], n)

    def per_query(name: str) -> Optional[float]:
        return _ratio(c.get(name, 0), n)

    facade = spans.get("facade", NO_SPAN)
    execute = spans.get("engine.execute", NO_SPAN)
    rebuild_names = [
        name for name in ("network.rebuild.csr", "network.rebuild.ch",
                          "network.rebuild.hub") if name not in probes.missing
    ]
    timed_spans = dict(spans)
    _fold(timed_spans, traced.update_spans)

    m: Dict[str, Optional[float]] = {
        "engine.plan_ms": span_ms("engine.plan"),
        "engine.execute_ms": span_ms("engine.execute"),
        "engine.overhead_ms": span_ms("engine.execute", 2),
        "engine.seq_share": _ratio(c.get("seq_plans", 0), diversified),
        "core.expansion_ms": span_ms("core.expansion"),
        "core.nodes_settled": per_query("nodes_accessed"),
        "core.edges_accessed": per_query("edges_accessed"),
        "index.signature_ms": span_ms("index.signature"),
        "index.signature_tests": per_query("signature_tests_run"),
        "index.signature_prune_ratio": _ratio(
            c.get("edges_pruned_by_signature", 0), c.get("signature_tests_run", 0)
        ),
        "index.load_objects_ms": span_ms("index.load_objects"),
        "index.objects_loaded": per_query("objects_loaded"),
        "index.false_hit_ratio": _ratio(
            c.get("false_hit_objects", 0), c.get("objects_loaded", 0)
        ),
        "storage.logical_reads": per_query("logical_reads"),
        "storage.physical_reads": per_query("physical_reads"),
        "storage.buffer_hit_ratio": _ratio(
            c.get("buffer_hits", 0), c.get("logical_reads", 0)
        ),
        "storage.buffer_evictions": per_query("buffer_evictions"),
        "network.pairwise_ms": span_ms("network.pairwise"),
        "network.pairwise_dijkstras": per_query("pairwise_dijkstras"),
        "network.backend_queries": per_query("backend_queries"),
        "network.backend_settled_nodes": per_query("backend_settled_nodes"),
        "network.distance_cache_hit_ratio": _ratio(
            c.get("distance_cache_hits", 0),
            c.get("distance_cache_hits", 0) + c.get("distance_cache_misses", 0),
        ),
        "core.greedy_ms": span_ms("core.greedy"),
        "core.core_pairs_ms": span_ms("core.core_pairs"),
        "core.theta_evaluations": per_query("theta_evaluations"),
        "core.candidates_mean": _ratio(sum(traced.candidates), n),
        "core.candidates_max": max(traced.candidates, default=None),
        "core.early_termination_ratio": _ratio(
            c.get("early_terminations", 0), diversified
        ),
        "core.objective_mean": _ratio(sum(traced.objectives), diversified),
        "network.rebuild_ms": _ms(sum(
            timed_spans.get(name, NO_SPAN)[2] for name in rebuild_names
        ), traced.operations) if rebuild_names else None,
        "network.rebuilds": sum(
            timed_spans.get(name + REBUILT, NO_SPAN)[0] for name in rebuild_names
        ) if rebuild_names else None,
        "datasets.build_s": setup_split["datasets.build_s"],
        "index.build_s": setup_split["index.build_s"],
        "index.size_bytes": size_bytes,
        "setup.warmup_s": setup_split["setup.warmup_s"],
        "network.csr_build_s": (
            setup_bucket.get("network.rebuild.csr", NO_SPAN)[2]
            if "network.rebuild.csr" not in probes.missing else None
        ),
        "network.oracle_build_s": sum(
            setup_bucket.get(name, NO_SPAN)[2]
            for name in rebuild_names if not name.endswith(".csr")
        ) if len(rebuild_names) > 1 else None,
        "obs.trace_overhead_pct": (
            sum(traced.query_seconds) / sum(reference.query_seconds) - 1.0
        ) * 100.0,
        # Facade time the named child spans account for; the rest is
        # unattributed (argument handling, the facade's own frames).
        "perf.span_coverage": _ratio(facade[1] - facade[2], facade[1]),
        "perf.execute_child_coverage": _ratio(execute[1] - execute[2], execute[1]),
    }
    for category in ("network", "inverted", "rtree"):
        m[f"storage.reads.{category}"] = _ratio(
            traced.reads_by_category.get(category, 0), n
        )
    all_updates = [s for v in traced.update_seconds.values() for s in v]
    m["core.update_mean_ms"] = _ms(sum(all_updates), len(all_updates))
    for kind in UPDATE_KINDS:
        samples = traced.update_seconds.get(kind)
        m[f"core.update_ms.{kind}"] = (
            stats.percentile(samples, 50) * 1e3 if samples else None
        )
    return m


def backend_probe(db, pools: List[list]) -> Dict[str, Optional[float]]:
    """Replay captured candidate pools through every distance backend.

    For the ROADMAP's mode ledger: the same pools, one
    ``PairwiseDistanceComputer`` per pool and backend, whole-matrix
    time, oracle build time, and whether all backends agree.  A backend
    that no longer exists reads ``null``.
    """
    out: Dict[str, Optional[float]] = {}
    pools = sorted(pools, key=len, reverse=True)[:BACKEND_PROBE_POOLS]
    try:
        _o, _n, computer_cls = resolve(
            "repro.network.distance:PairwiseDistanceComputer"
        )
    except LookupError:
        computer_cls = None
    digests = {}
    for backend in BACKENDS:
        oracle, build_s = None, 0.0
        available = computer_cls is not None and bool(pools)
        if available and backend != "dijkstra":
            try:
                _o, _n, factory = resolve(
                    f"repro.core.database:Database.{backend}_oracle"
                )
            except LookupError:
                available = False
            else:
                started = time.perf_counter()
                oracle = factory(db)
                build_s = time.perf_counter() - started
        if not available:
            out[f"network.pairwise_matrix_ms.{backend}"] = None
            out[f"network.oracle_build_s.{backend}"] = None
            continue
        parts = []
        started = time.perf_counter()
        for pool in pools:
            positions = [p for p, _d in pool]
            computer = computer_cls(
                db.ccam, db.network, cutoff=2.0 * pool[0][1] * 1.001,
                backend=oracle,
            )
            matrix = computer.pairwise_matrix(positions)
            if matrix is None:
                values = list(computer.pairwise(positions).values())
            else:
                size = len(positions)
                values = [
                    float(matrix[i][j])
                    for i in range(size) for j in range(i + 1, size)
                ]
            parts.append(values)
        elapsed = time.perf_counter() - started
        out[f"network.pairwise_matrix_ms.{backend}"] = elapsed * 1e3 / len(pools)
        out[f"network.oracle_build_s.{backend}"] = build_s
        digests[backend] = "|".join(
            ",".join(f"{v:.6g}" for v in values) for values in parts
        )
    out["network.backend_digest_match"] = (
        float(len(set(digests.values())) == 1) if len(digests) > 1 else None
    )
    return out


MODES = {"setup": mode_setup, "timed": mode_timed, "traced": mode_traced}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=sorted(MODES), required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--passes", type=int, default=TIMED_PASSES)
    parser.add_argument("--golden-dir", default=str(ROOT / "perf" / "golden"))
    parser.add_argument("--write-golden", action="store_true")
    parser.add_argument("--fault", choices=("none", "distance"), default="none")
    args = parser.parse_args(argv)
    if args.fault == "distance":
        inject_distance_fault()
    out = MODES[args.mode](args, WORKLOADS[args.workload])
    out["versions"] = library_versions()
    print(json.dumps(out))
    return 0


def inject_distance_fault() -> None:
    """Self-test switch: every expansion distance comes out 1 % long.

    Proves that the verifier bites; see ``perf/tests``.
    """
    from repro.core import ine

    original = ine.INEExpansion.run

    def run(self):
        for item in original(self):
            yield type(item)(item.object, item.distance * 1.01)

    ine.INEExpansion.run = run


if __name__ == "__main__":
    sys.exit(main())
