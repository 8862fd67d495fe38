#!/usr/bin/env python3
"""Run one or all workloads at several seeds and print each end-to-end
metric's spread: the distance between the first and third quartile of
its values as a share of their median — the figure the benchmark's
bounds have to hold.  Ten seeds of all four workloads take ~20 minutes.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perf import stats  # noqa: E402
from perf.workloads import WORKLOADS  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    too_wide = 0
    for name in [args.workload] if args.workload else list(WORKLOADS):
        values = {metric: [] for metric in bounds}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(contract["run_seconds"]),
                 "--trace", "0"],
                cwd=str(ROOT), stdout=subprocess.PIPE, text=True,
            )
            if done.returncode != 0:
                print(f"{name} seed {seed}: exit code {done.returncode}",
                      file=sys.stderr)
                return done.returncode
            line = json.loads(done.stdout.strip().splitlines()[-1])
            for metric, reading in line["metrics"].items():
                values[metric].append(reading["value"])
        for metric, readings in values.items():
            spread = stats.iqr_share(readings)
            wide = metric != "setup_s" and spread > bounds[metric]
            too_wide += wide
            print(f"{name:<14} {metric:<16} median {statistics.median(readings):>10.4f}"
                  f"  spread {spread:6.3f}  bound {bounds[metric]:.2f}"
                  f"{'  TOO WIDE' if wide else ''}", flush=True)
    return 1 if too_wide else 0


if __name__ == "__main__":
    sys.exit(main())
