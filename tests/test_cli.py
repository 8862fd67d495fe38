"""Tests for the command-line interface."""

import argparse
import json
import socket
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.network.distance import DISTANCE_BACKENDS

#: Recorded before the frontier / scoring / no-numpy switches were
#: deleted (``repro update SYN --scale 0.25 ... --record``).
PR11_JOURNAL = Path(__file__).parent / "data" / "flight_pr11.jsonl"


def _with_header(tmp_path, **fields):
    """A copy of ``PR11_JOURNAL`` whose header carries ``fields``."""
    lines = PR11_JOURNAL.read_text().splitlines()
    header = dict(json.loads(lines[0]), **fields)
    path = tmp_path / "flight.jsonl"
    path.write_text("\n".join([json.dumps(header), *lines[1:]]) + "\n")
    return path

#: Every subcommand's arguments: option strings (or the positional's
#: dest) -> (default, choices, type name).  Generated from
#: ``build_parser()`` at commit 1ef623e, before the flags moved into
#: shared parent parsers; a flag added, dropped or changed later is a
#: visible diff here.  (Since then: ``csgraph`` became the default
#: distance backend; the backend choices are read from the program;
#: the sampling profiler's two flags and subcommand and ``explain
#: --trace`` were retired and ``--trace`` lost its ``PATH``.)
FLAG_SURFACE = {
    "info": {
        "profile": (None, ("NA", "SF", "SYN", "TW"), None),
        "--scale": (1.0, None, "float"),
        "--seed": (None, None, "int"),
    },
    "generate": {
        "profile": (None, ("NA", "SF", "SYN", "TW"), None),
        "--scale": (1.0, None, "float"),
        "--seed": (None, None, "int"),
        "--out": (None, None, None),
    },
    "sk": {
        "profile": (None, ("NA", "SF", "SYN", "TW"), None),
        "--scale": (1.0, None, "float"),
        "--seed": (None, None, "int"),
        "--distance-backend": ("csgraph", DISTANCE_BACKENDS, None),
        "--queries": (50, None, "int"),
        "--keywords": (3, None, "int"),
        "--delta-max": (None, None, "float"),
        "--workload-seed": (101, None, "int"),
        "--workers": (1, None, "_positive_int"),
        "--metrics": (None, None, "_output_path"),
        "--trace": (False, None, None),
        "--prom": (None, None, "_output_path"),
        "--slow-ms": (None, None, "float"),
        "--slow-nodes": (None, None, "_positive_int"),
        "--slowlog": (None, None, "_output_path"),
        "--slo": (None, None, None),
        "--telemetry-port": (None, None, "_port"),
        "--record": (None, None, "_output_path"),
        "--index": (
            "sif",
            ("ccam", "ir", "if", "sif", "sif-p", "sif-g"),
            None,
        ),
    },
    "diversify": {
        "profile": (None, ("NA", "SF", "SYN", "TW"), None),
        "--scale": (1.0, None, "float"),
        "--seed": (None, None, "int"),
        "--distance-backend": ("csgraph", DISTANCE_BACKENDS, None),
        "--queries": (50, None, "int"),
        "--keywords": (3, None, "int"),
        "--delta-max": (None, None, "float"),
        "--workload-seed": (101, None, "int"),
        "--workers": (1, None, "_positive_int"),
        "--metrics": (None, None, "_output_path"),
        "--trace": (False, None, None),
        "--prom": (None, None, "_output_path"),
        "--slow-ms": (None, None, "float"),
        "--slow-nodes": (None, None, "_positive_int"),
        "--slowlog": (None, None, "_output_path"),
        "--slo": (None, None, None),
        "--telemetry-port": (None, None, "_port"),
        "--record": (None, None, "_output_path"),
        "--index": (
            "sif",
            ("ccam", "ir", "if", "sif", "sif-p", "sif-g"),
            None,
        ),
        "--k": (6, None, "int"),
        "--lambda": (0.8, None, "float"),
    },
    "update": {
        "profile": (None, ("NA", "SF", "SYN", "TW"), None),
        "--scale": (1.0, None, "float"),
        "--seed": (None, None, "int"),
        "--distance-backend": ("csgraph", DISTANCE_BACKENDS, None),
        "--queries": (50, None, "int"),
        "--keywords": (3, None, "int"),
        "--delta-max": (None, None, "float"),
        "--workload-seed": (101, None, "int"),
        "--workers": (1, None, "_positive_int"),
        "--metrics": (None, None, "_output_path"),
        "--trace": (False, None, None),
        "--prom": (None, None, "_output_path"),
        "--slow-ms": (None, None, "float"),
        "--slow-nodes": (None, None, "_positive_int"),
        "--slowlog": (None, None, "_output_path"),
        "--slo": (None, None, None),
        "--telemetry-port": (None, None, "_port"),
        "--record": (None, None, "_output_path"),
        "--index": (
            "sif",
            ("ccam", "ir", "if", "sif", "sif-p", "sif-g"),
            None,
        ),
        "--k": (6, None, "int"),
        "--lambda": (0.8, None, "float"),
        "--method": ("seq", ("seq", "com"), None),
        "--batches": (4, None, "_positive_int"),
        "--updates-per-batch": (20, None, "int"),
        "--update-seed": (202, None, "int"),
        "--insert-weight": (0.4, None, "float"),
        "--delete-weight": (0.4, None, "float"),
        "--edge-weight-weight": (0.2, None, "float"),
    },
    "compare": {
        "profile": (None, ("NA", "SF", "SYN", "TW"), None),
        "--scale": (1.0, None, "float"),
        "--seed": (None, None, "int"),
        "--distance-backend": ("csgraph", DISTANCE_BACKENDS, None),
        "--queries": (50, None, "int"),
        "--keywords": (3, None, "int"),
        "--delta-max": (None, None, "float"),
        "--workload-seed": (101, None, "int"),
        "--workers": (1, None, "_positive_int"),
        "--metrics": (None, None, "_output_path"),
        "--trace": (False, None, None),
        "--prom": (None, None, "_output_path"),
        "--slow-ms": (None, None, "float"),
        "--slow-nodes": (None, None, "_positive_int"),
        "--slowlog": (None, None, "_output_path"),
        "--slo": (None, None, None),
        "--telemetry-port": (None, None, "_port"),
        "--record": (None, None, "_output_path"),
    },
    "explain": {
        "profile": (None, ("NA", "SF", "SYN", "TW"), None),
        "--scale": (1.0, None, "float"),
        "--seed": (None, None, "int"),
        "--distance-backend": ("csgraph", DISTANCE_BACKENDS, None),
        "--index": (
            "sif",
            ("ccam", "ir", "if", "sif", "sif-p", "sif-g"),
            None,
        ),
        "--method": ("com", ("com", "seq", "sk"), None),
        "--keywords": (3, None, "int"),
        "--delta-max": (None, None, "float"),
        "--workload-seed": (101, None, "int"),
        "--k": (6, None, "int"),
        "--lambda": (0.8, None, "float"),
        "--query": (0, None, "int"),
        "--no-pruning": (False, None, None),
        "--slow-ms": (None, None, "float"),
        "--slow-nodes": (None, None, "_positive_int"),
    },
    "slowlog": {
        "path": (None, None, None),
        "--limit": (None, None, "_positive_int"),
    },
    "loadtest": {
        "profile": (None, ("NA", "SF", "SYN", "TW"), None),
        "--scale": (1.0, None, "float"),
        "--seed": (None, None, "int"),
        "--distance-backend": ("csgraph", DISTANCE_BACKENDS, None),
        "--queries": (50, None, "int"),
        "--keywords": (3, None, "int"),
        "--delta-max": (None, None, "float"),
        "--workload-seed": (101, None, "int"),
        "--workers": (1, None, "_positive_int"),
        "--metrics": (None, None, "_output_path"),
        "--trace": (False, None, None),
        "--prom": (None, None, "_output_path"),
        "--slow-ms": (None, None, "float"),
        "--slow-nodes": (None, None, "_positive_int"),
        "--slowlog": (None, None, "_output_path"),
        "--slo": (None, None, None),
        "--telemetry-port": (None, None, "_port"),
        "--record": (None, None, "_output_path"),
        "--index": (
            "sif",
            ("ccam", "ir", "if", "sif", "sif-p", "sif-g"),
            None,
        ),
        "--method": ("seq", ("seq", "com", "sk"), None),
        "--k": (6, None, "int"),
        "--lambda": (0.8, None, "float"),
        "--qps": (20.0, None, "_positive_float"),
        "--duration": (10.0, None, "_positive_float"),
    },
    "replay": {
        "path": (None, None, None),
        "--backend": (None, DISTANCE_BACKENDS, None),
        "--workers": (1, None, "_positive_int"),
        "--limit": (None, None, "_positive_int"),
    },
}


def flag_surface():
    """The live parser's arguments, in ``FLAG_SURFACE``'s shape."""
    def walk(parser, prefix):
        nested = [
            action for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        if nested:
            for name, child in nested[0].choices.items():
                yield from walk(child, prefix + (name,))
            return
        yield " ".join(prefix), {
            "/".join(action.option_strings) or action.dest: (
                action.default,
                tuple(action.choices) if action.choices is not None else None,
                getattr(action.type, "__name__", None),
            )
            for action in parser._actions
            if not isinstance(action, argparse._HelpAction)
        }

    return dict(walk(build_parser(), ()))


class TestParser:
    def test_flag_surface_is_pinned(self):
        surface = flag_surface()
        assert sum(len(flags) for flags in surface.values()) == 138
        assert surface == FLAG_SURFACE

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_profile_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["info", "MARS"])

    def test_index_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sk", "NA", "--index", "btree"])


class TestCommands:
    def test_info(self, capsys):
        assert main(["info", "SYN", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "num_objects" in out

    def test_generate(self, tmp_path, capsys):
        out_path = tmp_path / "snap.json"
        assert main(["generate", "SYN", "--scale", "0.05",
                     "--out", str(out_path)]) == 0
        payload = json.loads(out_path.read_text())
        assert payload["format"] == "repro-dataset"
        assert payload["objects"]

    def test_sk(self, capsys):
        assert main([
            "sk", "SYN", "--scale", "0.05", "--queries", "5",
            "--keywords", "2", "--index", "sif",
        ]) == 0
        out = capsys.readouterr().out
        assert "avg_io" in out

    def test_diversify(self, capsys):
        assert main([
            "diversify", "SYN", "--scale", "0.05", "--queries", "3",
            "--keywords", "2", "--k", "4",
        ]) == 0
        out = capsys.readouterr().out
        assert "SEQ" in out and "COM" in out

    def test_diversify_hub_backend(self, tmp_path, capsys):
        """Hub labels are built on a Contraction Hierarchy, and the run
        still shows no ``ch.*`` counter, ``ch_build`` record or ``ch``
        gauge: CH is an ingredient, not a backend."""
        path = tmp_path / "metrics.jsonl"
        prom = tmp_path / "metrics.prom"
        assert main([
            "diversify", "SYN", "--scale", "0.05", "--queries", "3",
            "--keywords", "2", "--k", "4", "--distance-backend", "hub",
            "--metrics", str(path), "--prom", str(prom),
        ]) == 0
        out = capsys.readouterr().out
        assert "SEQ" in out and "COM" in out
        records = [json.loads(line) for line in path.read_text().splitlines()]
        query_records = [r for r in records if r["type"] == "query"]
        assert query_records
        assert all(
            r["stats"]["distance_backend"] == "hub" for r in query_records
        )
        build_records = [r for r in records if r["type"] == "hub_build"]
        assert len(build_records) == 1
        assert build_records[0]["build_seconds"] > 0
        assert not [r for r in records if r["type"] == "ch_build"]
        (snapshot,) = [r for r in records if r["type"] == "snapshot"]
        assert not [c for c in snapshot["counters"] if c.startswith("ch.")]
        text = prom.read_text()
        assert "repro_distance_backend_hub 1.0" in text
        assert "repro_ch_" not in text and "distance_backend_ch" not in text

    def test_explain_hub_backend(self, capsys):
        assert main([
            "explain", "SYN", "--scale", "0.05", "--keywords", "2",
            "--distance-backend", "hub",
        ]) == 0
        out = capsys.readouterr().out
        assert "distance backend: hub" in out

    def test_bad_backend_rejected(self, capsys):
        """An unknown backend, and the retired ``ch``, are usage errors
        on every command that takes a backend."""
        commands = ("sk", "diversify", "update", "compare", "loadtest",
                    "explain")
        argvs = [
            [command, "SYN", "--distance-backend", name]
            for command in commands for name in ("astar", "ch")
        ] + [["replay", "F", "--backend", "ch"]]
        for argv in argvs:
            with pytest.raises(SystemExit) as err:
                main(argv)
            assert err.value.code == 2, argv
            assert "invalid choice" in capsys.readouterr().err, argv

    def test_metrics_file(self, tmp_path, capsys):
        path = tmp_path / "metrics.jsonl"
        assert main([
            "diversify", "SYN", "--scale", "0.05", "--queries", "2",
            "--keywords", "2", "--k", "4",
            "--metrics", str(path),
        ]) == 0
        records = [json.loads(line) for line in path.read_text().splitlines()]
        types = [r["type"] for r in records]
        assert "query" in types
        assert "workload" in types
        assert types[-1] == "snapshot"
        query_records = [r for r in records if r["type"] == "query"]
        assert len(query_records) == 4  # 2 queries x (SEQ, COM)
        for record in query_records:
            assert record["kind"] == "diversified"
            assert record["algorithm"] in ("seq", "com")
            stats = record["stats"]
            assert "expansion" in stats["stage_seconds"]
            assert "pairwise_dijkstras" in stats
            assert {
                "distance_cache_hits", "distance_cache_misses",
            } <= set(stats)
        err = capsys.readouterr().err
        assert "Wrote" in err and "metric records" in err

    def test_compare(self, capsys):
        assert main([
            "compare", "SYN", "--scale", "0.05", "--queries", "4",
            "--keywords", "2",
        ]) == 0
        out = capsys.readouterr().out
        for label in ("IR", "IF", "SIF", "SIF-P"):
            assert label in out


class TestObservabilityFlags:
    def test_trace_and_prom_exports(self, tmp_path, capsys):
        prom_path = tmp_path / "metrics.prom"
        assert main([
            "diversify", "SYN", "--scale", "0.05", "--queries", "2",
            "--keywords", "2", "--k", "4",
            "--trace", "--prom", str(prom_path),
        ]) == 0
        prom = prom_path.read_text()
        assert "# TYPE repro_query_count counter" in prom
        # --trace writes nothing itself, and takes no path to swallow.
        assert list(tmp_path.iterdir()) == [prom_path]
        with pytest.raises(SystemExit) as err:
            main(["sk", "SYN", "--trace", str(tmp_path / "out.json")])
        assert err.value.code == 2

    def test_output_paths_validated_at_parse_time(self, tmp_path):
        missing = tmp_path / "no" / "such" / "dir" / "out.json"
        for flag in ("--slowlog", "--prom", "--metrics"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(
                    ["sk", "SYN", flag, str(missing)]
                )

    def _run_raising(self, monkeypatch, target, argv):
        """Run ``argv`` with the workload runner ``target`` replaced by
        one that raises; returns what the harness had installed on the
        database at that moment."""
        seen = {}

        def explode(db, *args, **kwargs):
            seen.update(
                db=db,
                metrics_sinks=list(db.metrics._sinks),
                slow_log=db.slow_query_log,
                recorder=db.flight_recorder,
                server=db.telemetry_server,
            )
            raise RuntimeError("query blew up")

        monkeypatch.setattr(target, explode)
        with pytest.raises(RuntimeError, match="query blew up"):
            main(argv)
        return seen

    def _assert_torn_down(self, seen):
        db = seen["db"]
        (sink,) = seen["metrics_sinks"]
        assert sink.closed and db.metrics._sinks == []
        assert seen["slow_log"]._sink.closed and db.slow_query_log is None
        assert seen["recorder"]._sink.closed and db.flight_recorder is None
        server = seen["server"]
        assert not server.running and db.telemetry_server is None
        with socket.socket() as probe:  # the port is free again
            probe.bind((server.host, server.port))

    def test_metrics_sink_closed_when_query_raises(self, tmp_path,
                                                   monkeypatch):
        seen = self._run_raising(monkeypatch, "repro.cli.run_sk_workload", [
            "sk", "SYN", "--scale", "0.05", "--queries", "2",
            "--keywords", "2", "--metrics", str(tmp_path / "metrics.jsonl"),
            "--slowlog", str(tmp_path / "slow.jsonl"),
            "--record", str(tmp_path / "flight.jsonl"),
            "--telemetry-port", "0",
        ])
        self._assert_torn_down(seen)

    def test_loadtest_torn_down_when_run_raises(self, tmp_path, monkeypatch):
        seen = self._run_raising(
            monkeypatch, "repro.workloads.loadtest.run_loadtest", [
                "loadtest", "SYN", "--scale", "0.05", "--queries", "2",
                "--keywords", "2", "--k", "4",
                "--metrics", str(tmp_path / "metrics.jsonl"),
                "--slowlog", str(tmp_path / "slow.jsonl"),
                "--record", str(tmp_path / "flight.jsonl"),
                "--telemetry-port", "0",
            ],
        )
        self._assert_torn_down(seen)


class TestConcurrentObservability:
    def test_trace_with_workers_merges_lanes(self, tmp_path, capsys):
        """A traced 4-worker run: the slow log holds every query with
        its own tree and the thread that ran it."""
        log_path = tmp_path / "slow.jsonl"
        assert main([
            "sk", "SYN", "--scale", "0.05", "--queries", "8",
            "--keywords", "2", "--workers", "4",
            "--trace", "--slowlog", str(log_path),
        ]) == 0
        assert "serial-only" not in capsys.readouterr().err
        records = [
            json.loads(line) for line in log_path.read_text().splitlines()
        ]
        assert sorted(r["sequence"] for r in records) == list(range(8))
        for record in records:
            trace = record["trace"]
            assert trace["name"] == "query.sk"
            assert trace["attrs"]["terms"] == record["query"]["terms"]
            assert record["worker"].startswith("repro-query")
        assert main(["slowlog", str(log_path)]) == 0
        assert capsys.readouterr().out.count("SK range query [SIF]") == 8

    def test_three_files_hold_one_encoding(self, tmp_path, capsys):
        """One 4-worker run written to --metrics, --slowlog and
        --record: the same queries, encoded the same, in all three —
        and the concurrent recording replays."""
        paths = {
            flag: tmp_path / f"{flag}.jsonl"
            for flag in ("metrics", "slowlog", "record")
        }
        assert main([
            "diversify", "SYN", "--scale", "0.05", "--queries", "6",
            "--keywords", "2", "--k", "4", "--workers", "4",
            *(arg for flag, path in paths.items()
              for arg in (f"--{flag}", str(path))),
        ]) == 0

        def queries(flag, record_type):
            records = [
                json.loads(line)
                for line in paths[flag].read_text().splitlines()
            ]
            # SEQ and COM are two batches: the label tells them apart.
            return {
                (r["label"], r["sequence"]): r
                for r in records if r["type"] == record_type
            }

        lines = queries("metrics", "query")
        slow = queries("slowlog", "slow_query")
        flights = queries("record", "flight")
        assert len(lines) == 12  # 6 queries x (SEQ, COM)
        assert set(lines) == set(slow) == set(flights)
        for key, line in lines.items():
            for field in ("stats", "kind", "algorithm", "label", "epoch"):
                assert line[field] == slow[key][field] == flights[key][field]
            assert slow[key]["digest"] == flights[key]["digest"]
        capsys.readouterr()
        assert main(["replay", str(paths["record"])]) == 0
        assert "zero divergences" in capsys.readouterr().out

    def test_prom_includes_cache_gauges(self, tmp_path):
        prom_path = tmp_path / "metrics.prom"
        assert main([
            "diversify", "SYN", "--scale", "0.05", "--queries", "2",
            "--keywords", "2", "--k", "4", "--prom", str(prom_path),
        ]) == 0
        prom = prom_path.read_text()
        assert "# TYPE repro_buffer_pool_hit_rate gauge" in prom
        assert "# TYPE repro_buffer_pool_evictions gauge" in prom
        # Pairwise node maps die with their query: no cache to gauge.
        assert "repro_distance_cache_hit_rate" not in prom


class TestSlowLogCommand:
    def test_capture_and_render(self, tmp_path, capsys):
        log_path = tmp_path / "slow.jsonl"
        assert main([
            "diversify", "SYN", "--scale", "0.05", "--queries", "2",
            "--keywords", "2", "--k", "4", "--workers", "2",
            "--slowlog", str(log_path), "--trace",
        ]) == 0
        err = capsys.readouterr().err
        assert "Slow-query log: captured 4 of 4 queries" in err
        records = [
            json.loads(line) for line in log_path.read_text().splitlines()
        ]
        assert all(r["type"] == "slow_query" for r in records)
        assert all(r["trace"] is not None for r in records)
        assert all(r["label"] for r in records)

        assert main(["slowlog", str(log_path)]) == 0
        out = capsys.readouterr().out
        assert "SLOW QUERY #1" in out
        assert "diversified query" in out

    def test_threshold_filters(self, tmp_path, capsys):
        log_path = tmp_path / "slow.jsonl"
        assert main([
            "sk", "SYN", "--scale", "0.05", "--queries", "3",
            "--keywords", "2",
            "--slow-ms", "60000", "--slowlog", str(log_path),
        ]) == 0
        err = capsys.readouterr().err
        assert "captured 0 of 3" in err
        assert main(["slowlog", str(log_path)]) == 0
        assert "no slow-query records" in capsys.readouterr().out

    def test_missing_file_fails(self, tmp_path, capsys):
        assert main(["slowlog", str(tmp_path / "absent.jsonl")]) == 1


class TestSLOGate:
    def _spec(self, tmp_path, threshold):
        spec = {
            "name": "serving",
            "rules": [
                {"name": "p95 latency", "kind": "histogram_quantile",
                 "metric": "query.wall_seconds", "op": "<=",
                 "threshold": threshold, "quantile": 95},
                {"name": "ran queries", "kind": "counter",
                 "metric": "query.count", "op": ">=", "threshold": 1},
            ],
        }
        path = tmp_path / "slo.json"
        path.write_text(json.dumps(spec))
        return path

    def test_passing_slo(self, tmp_path, capsys):
        path = self._spec(tmp_path, threshold=3600.0)
        assert main([
            "sk", "SYN", "--scale", "0.05", "--queries", "3",
            "--keywords", "2", "--slo", str(path),
        ]) == 0
        out = capsys.readouterr().out
        assert "PASS  p95 latency" in out

    def test_violated_slo_fails_command(self, tmp_path, capsys):
        path = self._spec(tmp_path, threshold=0.0)
        assert main([
            "sk", "SYN", "--scale", "0.05", "--queries", "3",
            "--keywords", "2", "--slo", str(path),
        ]) == 1
        captured = capsys.readouterr()
        assert "FAIL  p95 latency" in captured.out
        assert "SLO VIOLATED" in captured.err


class TestExplainCommand:
    def test_explain_diversified(self, capsys):
        assert main([
            "explain", "SYN", "--scale", "0.05", "--method", "com",
            "--keywords", "1", "--k", "4", "--delta-max", "4000",
        ]) == 0
        out = capsys.readouterr().out
        assert "EXPLAIN" in out
        assert "COM" in out

    def test_explain_sk(self, capsys):
        assert main([
            "explain", "SYN", "--scale", "0.05", "--method", "sk",
            "--keywords", "2", "--index", "sif-p",
        ]) == 0
        out = capsys.readouterr().out
        assert "SK range query" in out
        assert "signature filter [SIF-P]" in out
        assert "wall clock by top-level span" in out

    def test_explain_slow_verdict(self, capsys):
        assert main([
            "explain", "SYN", "--scale", "0.05", "--method", "sk",
            "--keywords", "2", "--slow-ms", "60000",
        ]) == 0
        out = capsys.readouterr().out
        assert "slow-query verdict: OK — " in out
        assert main([
            "explain", "SYN", "--scale", "0.05", "--method", "sk",
            "--keywords", "2", "--slow-ms", "0",
        ]) == 0
        out = capsys.readouterr().out
        assert "slow-query verdict: SLOW — " in out


class TestLoadtestCommand:
    def _live_spec(self, tmp_path, threshold):
        spec = {
            "name": "live",
            "rules": [
                {"name": "observed-p95", "kind": "histogram_quantile",
                 "metric": "loadtest.latency_seconds", "op": "<=",
                 "threshold": threshold, "quantile": 95},
            ],
        }
        path = tmp_path / "live-slo.json"
        path.write_text(json.dumps(spec))
        return path

    def test_loadtest_runs_and_reports(self, capsys):
        assert main([
            "loadtest", "SYN", "--scale", "0.05", "--queries", "10",
            "--keywords", "2", "--k", "4", "--workers", "2",
            "--qps", "30", "--duration", "0.5",
        ]) == 0
        out = capsys.readouterr().out
        assert "offered_qps" in out
        assert "achieved_qps" in out
        assert "max_lag_ms" in out

    def test_loadtest_live_slo_pass(self, tmp_path, capsys):
        spec = self._live_spec(tmp_path, threshold=30.0)
        assert main([
            "loadtest", "SYN", "--scale", "0.05", "--queries", "10",
            "--keywords", "2", "--k", "4", "--workers", "2",
            "--qps", "30", "--duration", "0.5", "--slo", str(spec),
        ]) == 0
        captured = capsys.readouterr()
        assert "PASS" in captured.out
        assert "Live SLO [live]" in captured.err

    def test_loadtest_live_slo_breach_fails(self, tmp_path, capsys):
        spec = self._live_spec(tmp_path, threshold=0.0)
        assert main([
            "loadtest", "SYN", "--scale", "0.05", "--queries", "10",
            "--keywords", "2", "--k", "4", "--workers", "2",
            "--qps", "30", "--duration", "0.5", "--slo", str(spec),
        ]) == 1
        captured = capsys.readouterr()
        assert "FAIL" in captured.out
        assert "live SLO gate FAILED" in captured.err

    def test_loadtest_with_telemetry_port(self, capsys):
        # Port 0 binds an ephemeral port; the run must start/stop the
        # server cleanly around the workload.
        assert main([
            "loadtest", "SYN", "--scale", "0.05", "--queries", "10",
            "--keywords", "2", "--k", "4", "--workers", "2",
            "--qps", "30", "--duration", "0.5", "--telemetry-port", "0",
        ]) == 0
        err = capsys.readouterr().err
        assert "Telemetry: http://127.0.0.1:" in err


class TestTelemetryFlag:
    def test_workload_with_telemetry_port(self, capsys):
        assert main([
            "sk", "SYN", "--scale", "0.05", "--queries", "3",
            "--keywords", "2", "--telemetry-port", "0",
        ]) == 0
        err = capsys.readouterr().err
        assert "Telemetry: http://127.0.0.1:" in err


class TestFlagValidation:
    def test_rate_flags_rejected_at_parse_time(self):
        bad = [
            ["loadtest", "SYN", "--qps", "0"],
            ["loadtest", "SYN", "--qps", "-5"],
            ["loadtest", "SYN", "--duration", "0"],
            ["loadtest", "SYN", "--duration", "nan"],
            ["loadtest", "SYN", "--telemetry-port", "70000"],
            # Retired with shadow execution: a usage error, not a
            # flag accepted and ignored.
            ["diversify", "SYN", "--shadow-backend", "ch"],
            ["diversify", "SYN", "--shadow-rate", "0.5"],
        ]
        for argv in bad:
            with pytest.raises(SystemExit) as err:
                build_parser().parse_args(argv)
            assert err.value.code == 2, argv

    def test_valid_rates_accepted(self):
        args = build_parser().parse_args([
            "loadtest", "SYN", "--qps", "12.5", "--duration", "0.5",
        ])
        assert args.qps == 12.5


class TestFlightRecorderCLI:
    def test_record_then_replay_roundtrip(self, tmp_path, capsys):
        journal = tmp_path / "flight.jsonl"
        assert main([
            "diversify", "SYN", "--scale", "0.05", "--queries", "3",
            "--keywords", "2", "--k", "4", "--record", str(journal),
        ]) == 0
        err = capsys.readouterr().err
        assert "Flight recorder: captured 6 queries" in err
        lines = [
            json.loads(line) for line in journal.read_text().splitlines()
        ]
        assert lines[0]["type"] == "flight_header"
        assert lines[0]["profile"] == "SYN"

        assert main(["replay", str(journal)]) == 0
        out = capsys.readouterr().out
        assert "verdict: PASS — zero divergences" in out

    def test_replay_with_backend_override(self, tmp_path, capsys):
        journal = tmp_path / "flight.jsonl"
        assert main([
            "diversify", "SYN", "--scale", "0.05", "--queries", "2",
            "--keywords", "2", "--k", "4", "--record", str(journal),
        ]) == 0
        assert main([
            "replay", str(journal), "--backend", "hub", "--workers", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "backend=hub" in out
        assert "verdict: PASS" in out

    @pytest.mark.parametrize("backend", DISTANCE_BACKENDS)
    def test_replay_pre_refactor_journal(self, backend, capsys):
        """tests/data/flight_pr11.jsonl was recorded before the frontier
        and scoring modes were deleted; its header still names them."""
        assert main(["replay", str(PR11_JOURNAL), "--backend", backend]) == 0
        out = capsys.readouterr().out
        assert out.count("retired modes (frontier=csr, scoring=array)") == 1
        assert "24 queries re-executed, 16 updates re-applied" in out
        assert "verdict: PASS — zero divergences" in out

    def test_replay_retired_backend_header(self, tmp_path, capsys):
        """A journal whose header names the retired ``ch`` backend
        replays on ``csgraph`` and says so with the retired modes."""
        journal = _with_header(tmp_path, distance_backend="ch")
        assert main(["replay", str(journal)]) == 0
        out = capsys.readouterr().out
        assert "backend=csgraph" in out
        assert out.count(
            "retired modes (frontier=csr, scoring=array, "
            "distance_backend=ch)"
        ) == 1
        assert "verdict: PASS — zero divergences" in out

    def test_replay_unknown_backend_header(self, tmp_path, capsys):
        journal = _with_header(tmp_path, distance_backend="astar")
        assert main(["replay", str(journal)]) == 2
        assert (
            "error: unknown distance backend 'astar' in journal header"
            in capsys.readouterr().err
        )

    @pytest.mark.parametrize("argv", [
        ["sk", "SYN", "--frontier", "dict"],
        ["replay", "F", "--scoring", "scalar"],
    ])
    def test_retired_mode_flags_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_replay_catches_tampered_journal(self, tmp_path, capsys):
        journal = tmp_path / "flight.jsonl"
        assert main([
            "diversify", "SYN", "--scale", "0.05", "--queries", "2",
            "--keywords", "2", "--k", "4", "--record", str(journal),
        ]) == 0
        lines = journal.read_text().splitlines()
        tampered = []
        for line in lines:
            record = json.loads(line)
            if record["type"] == "flight" and record["sequence"] == 0:
                record["digest"] = "f" * 16
            tampered.append(json.dumps(record))
        journal.write_text("\n".join(tampered) + "\n")
        assert main(["replay", str(journal)]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "DIVERGENCE" in out

    def test_replay_missing_file(self, tmp_path):
        assert main(["replay", str(tmp_path / "absent.jsonl")]) == 1

    def test_replay_headerless_journal(self, tmp_path, capsys):
        path = tmp_path / "bare.jsonl"
        path.write_text(json.dumps({"type": "flight"}) + "\n")
        assert main(["replay", str(path)]) == 2
        assert "no flight_header" in capsys.readouterr().err

    def test_update_workload_records_and_replays(self, tmp_path, capsys):
        journal = tmp_path / "flight.jsonl"
        assert main([
            "update", "SYN", "--scale", "0.05", "--queries", "3",
            "--keywords", "2", "--record", str(journal),
        ]) == 0
        types = {
            json.loads(line)["type"]
            for line in journal.read_text().splitlines()
        }
        assert "flight_update" in types
        assert main(["replay", str(journal)]) == 0
        out = capsys.readouterr().out
        assert "updates re-applied" in out
        assert "verdict: PASS" in out

    def test_slowlog_records_carry_digest(self, tmp_path, capsys):
        log_path = tmp_path / "slow.jsonl"
        journal = tmp_path / "flight.jsonl"
        assert main([
            "diversify", "SYN", "--scale", "0.05", "--queries", "2",
            "--keywords", "2", "--k", "4",
            "--slowlog", str(log_path), "--record", str(journal),
        ]) == 0
        capsys.readouterr()
        records = [
            json.loads(line) for line in log_path.read_text().splitlines()
        ]
        assert records and all(r.get("digest") for r in records)
        assert main(["slowlog", str(log_path)]) == 0
        assert "[digest " in capsys.readouterr().out

    def test_explain_renders_digest(self, capsys):
        assert main([
            "explain", "SYN", "--scale", "0.05", "--method", "com",
            "--keywords", "2", "--k", "4",
        ]) == 0
        assert "result digest: " in capsys.readouterr().out


class TestSlowlogToleranceCommand:
    def test_skips_malformed_lines_and_renders_breaches(
        self, tmp_path, capsys
    ):
        path = tmp_path / "slow.jsonl"
        breach = {
            "type": "slo_breach", "spec": "live",
            "window": {"window_seconds": 10.0, "count": 5, "qps": 0.5,
                       "error_rate": 0.0},
            "failed": [{"rule": {"name": "p95", "metric": "m",
                                 "op": "<=", "threshold": 0.1},
                        "value": 0.5}],
        }
        record = {
            "type": "slow_query", "seq": 1, "label": "L",
            "wall_seconds": 0.01, "nodes_accessed": 5,
            "exceeded": ["latency"], "worker": "w",
            "stats": {"stage_seconds": {}},
        }
        # A note type older logs carry and nothing renders any more:
        # passed over like any foreign record type, not an error.
        foreign = {
            "type": "shadow_divergence", "label": "L",
            "primary_digest": "a" * 16, "shadow_digest": "b" * 16,
        }
        path.write_text(
            json.dumps(record) + "\n"
            + json.dumps(breach) + "\n"
            + json.dumps(foreign) + "\n"
            + '{"truncated": \n'
        )
        assert main(["slowlog", str(path)]) == 0
        captured = capsys.readouterr()
        assert "SLOW QUERY #1" in captured.out
        assert "SLO BREACH" in captured.out
        assert "shadow" not in captured.out.lower()
        assert "2 record(s) rendered" in captured.err
        assert "skipped 1 malformed line(s)" in captured.err
