#!/usr/bin/env python3
"""Run the benchmark twice on this checkout and check that it agrees
with itself.

Every end-to-end timing must agree within a tenth (or its bound of
``BENCHMARK.json``, if that is tighter); every count — end-to-end or
per-layer — must agree exactly.  Reports land in ``perf/out/``.  Pass ``--quick`` or
``--workload`` through to shorten the check.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perf.compare import EXACT_UNITS, SAME_SEED_BOUND  # noqa: E402


def disagreements(first: dict, second: dict, contract: dict) -> list:
    """``(workload, metric, a, b, allowed)`` for every metric that moved
    more than it may between two runs of the same code."""
    out = []
    for name, a_entry in first["workloads"].items():
        b_entry = second["workloads"][name]
        specs = [("end_to_end", s) for s in contract["end_to_end"]]
        # Per-layer timings have no bound; only their counts are held.
        specs += [("per_layer", s) for s in contract["per_layer"]
                  if s["unit"] in EXACT_UNITS]
        for section, spec in specs:
            a = a_entry[section].get(spec["name"])
            b = b_entry[section].get(spec["name"])
            allowed = (
                0.0 if spec["unit"] in EXACT_UNITS
                else min(spec["bound"], SAME_SEED_BOUND)
            )
            if a is None or b is None:
                moved = a is not b
            else:
                moved = abs(a - b) > allowed * min(abs(a), abs(b))
            if moved:
                out.append((name, spec["name"], a, b, allowed))
        for key in ("attempted", "failed"):
            if a_entry[key] != b_entry[key]:
                out.append((name, key, a_entry[key], b_entry[key], 0.0))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)
    reports = []
    for label in ("first", "second"):
        out = HERE / "out" / f"repeat-{label}.json"
        command = [sys.executable, str(HERE / "run.py"),
                   "--seed", str(args.seed), "--out", str(out)]
        if args.workload:
            command += ["--workload", args.workload]
        if args.quick:
            command.append("--quick")
        done = subprocess.run(command, cwd=str(ROOT), stdout=subprocess.DEVNULL)
        if done.returncode != 0:
            print(f"{label} run exited with {done.returncode}", file=sys.stderr)
            return done.returncode
        reports.append(json.loads(out.read_text()))
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    moved = disagreements(reports[0], reports[1], contract)
    for name, metric, a, b, allowed in moved:
        print(f"DISAGREE {name:<14} {metric:<32} {a!r} vs {b!r} "
              f"(allowed {allowed:g})")
    print(f"{len(moved)} metrics disagree between two runs of the same code")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
