import copy
import json
from pathlib import Path

import pytest

from perf import compare, repeat

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def contract():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def report(**end_to_end):
    values = {"setup_s": 4.0, "query_p50_ms": 10.0, "query_p95_ms": 20.0,
              "throughput_qps": 80.0, "reads_per_query": 40.0, "rss_mb": 170.0}
    values.update(end_to_end)
    return {
        "provenance": {"seed": 7, "scale": 1.0, "seconds": 12.0, "passes": 3,
                       "quick": False},
        "workloads": {"sk_range": {
            "end_to_end": values, "per_layer": {"core.nodes_settled": 64.0,
                                                "engine.plan_ms": 9.0},
            "passes": [{"query_p50_ms": values["query_p50_ms"] * f,
                        "throughput_qps": values["throughput_qps"] / f}
                       for f in (0.98, 1.0, 1.02)],
            "setup_samples_s": [3.9, 4.0, 4.1], "attempted": 100, "failed": 0,
        }},
    }


def verdicts(old, new, contract):
    rows, refusals = compare.compare(old, new, contract)
    assert not refusals
    return {metric: outcome for _w, metric, _a, _b, _d, outcome in rows}


def test_same_better_worse(contract):
    out = verdicts(report(), report(query_p50_ms=8.0, throughput_qps=60.0), contract)
    assert out["query_p50_ms"] == "better"
    assert out["throughput_qps"] == "worse"
    assert out["query_p95_ms"] == "same"


def test_counts_are_held_exactly(contract):
    out = verdicts(report(), report(reads_per_query=40.01), contract)
    assert out["reads_per_query"] == "worse"
    assert verdicts(report(), report(reads_per_query=39.0), contract)[
        "reads_per_query"] == "better"


def test_noisy_passes_make_a_small_change_unresolved(contract):
    new = report(query_p50_ms=10.5)
    passes = new["workloads"]["sk_range"]["passes"]
    passes[0]["query_p50_ms"], passes[2]["query_p50_ms"] = 8.0, 13.0
    assert verdicts(report(), new, contract)["query_p50_ms"] == "unresolved"


def test_more_failures_is_worse(contract):
    new = report()
    new["workloads"]["sk_range"]["failed"] = 1
    assert verdicts(report(), new, contract)["failed"] == "worse"


def test_refuses_reports_of_different_runs(contract, tmp_path, capsys):
    other = report()
    other["provenance"]["seed"] = 8
    _rows, refusals = compare.compare(report(), other, contract)
    assert refusals and "seed" in refusals[0]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(report()))
    b.write_text(json.dumps(other))
    assert compare.main([str(a), str(b)]) == 2
    b.write_text(json.dumps(report(throughput_qps=60.0)))
    assert compare.main([str(a), str(b)]) == 1
    b.write_text(json.dumps(report()))
    assert compare.main([str(a), str(b)]) == 0


def test_repeat_holds_timings_to_their_bound_and_counts_exactly(contract):
    first = report()
    assert repeat.disagreements(first, copy.deepcopy(first), contract) == []
    second = report(query_p50_ms=10.9)      # within a tenth
    assert repeat.disagreements(first, second, contract) == []
    second = report(query_p50_ms=12.0)      # beyond it
    assert [d[1] for d in repeat.disagreements(first, second, contract)] == ["query_p50_ms"]
    second = report()
    second["workloads"]["sk_range"]["per_layer"]["core.nodes_settled"] = 64.5
    second["workloads"]["sk_range"]["per_layer"]["engine.plan_ms"] = 19.0
    assert [d[1] for d in repeat.disagreements(first, second, contract)] == [
        "core.nodes_settled"]
