#!/usr/bin/env python3
"""The repo's benchmark: one command, every metric by name, answers checked.

Two ways in:

``python3 perf/run.py --workload W --seed N --seconds S --trace 0|1``
    one workload, one kind of run; the last line of output is the JSON
    object ``BENCHMARK.json``'s contract describes (``--trace 0``: the
    end-to-end metrics, ``--trace 1``: the per-layer metrics).

``python3 perf/run.py [--workload W] [--seed 7] [--out FILE] [--quick]``
    every workload (or one), untraced and traced, printed as tables and
    written to ``FILE`` with provenance and per-pass raw values — the
    input of ``perf/compare.py``.

Each measurement runs in a fresh interpreter (``perf/worker.py``) with
``PYTHONHASHSEED=0`` and BLAS/OMP threads pinned to 1: page-read counts
depend on set iteration order, and one client on one thread is the load.
Exits non-zero when any answer fails verification.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perf.workloads import WORKLOADS  # noqa: E402

#: A run of the contract must end within 180 s; leave room to report.
RUN_BUDGET_SECONDS = 170.0
#: ``setup_s`` is the median of this many fresh-process set-ups.
SETUP_REPEATS = 3
QUICK = {"scale": 0.1, "seconds": 1.0, "passes": 1, "setup_repeats": 1}

PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def load_contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


class WorkerFailed(RuntimeError):
    pass


def run_worker(mode: str, workload: str, options, deadline: float) -> dict:
    """One measurement in a fresh, pinned interpreter; returns its JSON."""
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--mode", mode, "--workload", workload,
        "--seed", str(options.seed), "--seconds", str(options.seconds),
        "--scale", str(options.scale), "--passes", str(options.passes),
        "--golden-dir", options.golden_dir, "--fault", options.fault,
    ]
    if options.write_golden and mode == "timed":
        command.append("--write-golden")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise WorkerFailed(f"{workload}/{mode}: no time left in the run budget")
    try:
        # run() kills the child and waits for it when the timeout expires.
        done = subprocess.run(
            command, env={**os.environ, **PINNED_ENV}, cwd=str(ROOT),
            stdout=subprocess.PIPE, text=True, timeout=remaining,
        )
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"{workload}/{mode}: timed out") from None
    if done.returncode != 0:
        raise WorkerFailed(f"{workload}/{mode}: exit code {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise WorkerFailed(f"{workload}/{mode}: printed no result")
    return json.loads(lines[-1])


def measure_end_to_end(workload: str, options) -> dict:
    """``--trace 0``: set-up several times, then the timed passes."""
    deadline = time.monotonic() + RUN_BUDGET_SECONDS
    setups = [
        run_worker("setup", workload, options, deadline)["setup"]["setup_s"]
        for _ in range(options.setup_repeats - 1)
    ]
    timed = run_worker("timed", workload, options, deadline)
    setups.append(timed["setup"]["setup_s"])
    timed["end_to_end"]["setup_s"] = statistics.median(setups)
    timed["setup_samples_s"] = setups
    return timed


def measure_per_layer(workload: str, options) -> dict:
    """``--trace 1``: reference pass and traced pass."""
    deadline = time.monotonic() + RUN_BUDGET_SECONDS
    return run_worker("traced", workload, options, deadline)


def contract_line(result: dict, section: str, contract: dict) -> str:
    """The last line of a contract run: exactly four keys."""
    values = result[section]
    metrics = {}
    for spec in contract[section]:
        value = values.get(spec["name"])
        if value is None:
            # Not applicable on this workload, or its probe target is
            # gone (a warning was printed): the contract wants a number.
            value = 0.0
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    })


def report_failures(workload: str, result: dict) -> None:
    for message in result.get("failures", ()):
        print(f"FAIL {workload}: {message}", file=sys.stderr)


def provenance(options) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(ROOT), text=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    return {
        "commit": commit,
        "nproc": os.cpu_count(),
        "seed": options.seed,
        "seconds": options.seconds,
        "scale": options.scale,
        "passes": options.passes,
        "setup_repeats": options.setup_repeats,
        "quick": options.quick,
        "pinned_env": PINNED_ENV,
    }


def print_tables(name: str, entry: dict, contract: dict) -> None:
    spec = WORKLOADS[name]
    print(f"\n== {name}: {spec.why}")
    extra = entry["extra"]
    print(f"   {entry['attempted']} operations checked, {entry['failed']} failed; "
          f"{extra['query_samples']} timed queries, "
          f"{extra['p95_samples_beyond']} beyond p95")
    rows = [(m["name"], entry["end_to_end"].get(m["name"]), m["unit"])
            for m in contract["end_to_end"]]
    if extra["tail_percentile"] is not None:
        rows.append((f"query_p{extra['tail_percentile']:g}_ms (highest supported, "
                     f"{extra['tail_samples_beyond']} beyond)", extra["tail_ms"], "ms"))
    rows.append(("update_mean_ms", extra["update_mean_ms"], "ms"))
    rows.append(("objective_mean", extra["objective_mean"], "1"))
    rows += [(m["name"], entry["per_layer"].get(m["name"]), m["unit"])
             for m in contract["per_layer"]]
    for label, value, unit in rows:
        shown = "null" if value is None else f"{value:.6g}"
        print(f"   {label:<46} {shown:>12} {unit}")


def full_run(options, names: List[str]) -> int:
    contract = load_contract()
    report = {
        "provenance": provenance(options),
        "workloads": {},
    }
    failed = 0
    for name in names:
        entry = measure_end_to_end(name, options)
        traced = measure_per_layer(name, options)
        report["provenance"]["versions"] = entry.pop("versions")
        entry["per_layer"] = traced["per_layer"]
        entry["attempted"] += traced["attempted"]
        entry["failed"] += traced["failed"]
        entry["failures"] += traced["failures"]
        digests = entry.pop("digests", None)
        if options.write_golden:
            write_golden(options, name, digests, report["provenance"]["versions"])
        report_failures(name, entry)
        print_tables(name, entry, contract)
        failed += entry["failed"]
        report["workloads"][name] = entry
    if options.out:
        Path(options.out).parent.mkdir(parents=True, exist_ok=True)
        Path(options.out).write_text(json.dumps(report, indent=1, sort_keys=True))
        print(f"\nwrote {options.out}")
    if failed:
        print(f"\n{failed} operations failed verification", file=sys.stderr)
    return 1 if failed else 0


def write_golden(options, name: str, digests: List[str], versions: dict) -> None:
    from perf.verify import golden_path
    path = golden_path(Path(options.golden_dir), name, options.seed)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({
        "workload": name, "seed": options.seed, "scale": options.scale,
        "versions": versions, "digests": digests,
    }, indent=0))
    print(f"wrote {path}", file=sys.stderr)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float,
                        help="measuring time the operation stream is sized "
                             "for (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="contract run: 0 end-to-end, 1 per-layer")
    parser.add_argument("--out", help="write the full report here")
    parser.add_argument("--quick", action="store_true",
                        help="smoke run: scale 0.1, one pass, not comparable")
    parser.add_argument("--golden-dir", default=str(HERE / "golden"))
    parser.add_argument("--write-golden", action="store_true",
                        help="record this run's digests as the golden ones")
    parser.add_argument("--fault", choices=("none", "distance"), default="none",
                        help="self-test: corrupt distances, expect a failure")
    options = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print("perf/run.py: src/repro not found — the benchmark measures "
              "the library in this checkout", file=sys.stderr)
        return 2
    contract = load_contract()
    options.scale = QUICK["scale"] if options.quick else 1.0
    options.passes = QUICK["passes"] if options.quick else 3
    options.setup_repeats = QUICK["setup_repeats"] if options.quick else SETUP_REPEATS
    if options.seconds is None:
        options.seconds = (
            QUICK["seconds"] if options.quick else float(contract["run_seconds"])
        )

    try:
        if options.trace is None:
            names = [options.workload] if options.workload else list(WORKLOADS)
            return full_run(options, names)
        if not options.workload:
            parser.error("--trace needs --workload")
        if options.trace == 0:
            result, section = measure_end_to_end(options.workload, options), "end_to_end"
        else:
            result, section = measure_per_layer(options.workload, options), "per_layer"
    except WorkerFailed as exc:
        print(f"perf/run.py: {exc}", file=sys.stderr)
        return 3
    report_failures(options.workload, result)
    print(contract_line(result, section, contract))
    return 1 if result["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
