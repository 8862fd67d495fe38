"""End-to-end checks of the command itself, at --quick scale."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
RUN = [sys.executable, str(ROOT / "perf" / "run.py")]


def run(*args, cwd=ROOT):
    return subprocess.run(
        [*RUN, *args], cwd=str(cwd), text=True, timeout=170,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )


@pytest.fixture(scope="module")
def contract():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_contract_line(contract, trace, section):
    done = run("--quick", "--workload", "mixed_updates", "--seed", "3",
               "--seconds", "1", "--trace", trace)
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    assert list(line["metrics"]) == [m["name"] for m in contract[section]]
    for spec in contract[section]:
        metric = line["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"]
        assert isinstance(metric["value"], (int, float))
    if section == "end_to_end":
        assert all(m["value"] > 0 for m in line["metrics"].values())


def test_full_report_has_provenance_and_raw_passes(tmp_path, contract):
    out = tmp_path / "report.json"
    done = run("--quick", "--workload", "div_default", "--out", str(out))
    assert done.returncode == 0, done.stderr
    assert "query_p50_ms" in done.stdout and "engine.plan_ms" in done.stdout
    report = json.loads(out.read_text())
    provenance = report["provenance"]
    assert provenance["quick"] is True and provenance["seed"] == 7
    assert provenance["pinned_env"]["PYTHONHASHSEED"] == "0"
    assert {"python", "numpy", "scipy"} <= set(provenance["versions"])
    entry = report["workloads"]["div_default"]
    assert len(entry["passes"]) == provenance["passes"]
    assert entry["extra"]["objective_mean"] > 0
    assert entry["failed"] == 0
    # The worker and the contract name the same metrics.
    assert set(entry["per_layer"]) == {m["name"] for m in contract["per_layer"]}
    assert set(entry["end_to_end"]) == {m["name"] for m in contract["end_to_end"]}


def test_a_distance_off_by_one_percent_fails_the_command():
    done = run("--quick", "--workload", "sk_range", "--fault", "distance")
    assert done.returncode != 0
    assert "FAIL sk_range" in done.stderr


def test_a_corrupted_golden_digest_fails_the_command(tmp_path):
    golden_dir = tmp_path / "golden"
    common = ("--quick", "--workload", "div_default", "--golden-dir", str(golden_dir))
    assert run(*common, "--write-golden").returncode == 0
    path = golden_dir / "div_default.seed7.json"
    assert run(*common).returncode == 0, "the recorded digests reproduce"

    golden = json.loads(path.read_text())
    position = next(i for i, d in enumerate(golden["digests"]) if d)
    golden["digests"][position] = "0" * 16
    path.write_text(json.dumps(golden))
    done = run(*common)
    assert done.returncode != 0
    assert "differs from golden" in done.stderr


def test_without_the_library_it_exits_non_zero_and_prints_no_result(tmp_path):
    shutil.copytree(ROOT / "perf", tmp_path / "perf",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", "sk_range", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), text=True, timeout=60,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
