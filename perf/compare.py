#!/usr/bin/env python3
"""Compare two reports of ``perf/run.py --out``: parent first, change second.

One row per workload and end-to-end metric: the parent's value, the
change's, the ratio with its base, and a verdict.  Direction and bound
come from ``BENCHMARK.json``.  Both reports hold the same operations
(same seed, scale, size — anything else is refused), so their passes
pair up: the spread of the per-pass ratios is the noise, and a change
smaller than that noise is ``unresolved``, not ``same``.

Exits non-zero on any ``worse`` row or when more operations failed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent

#: Metrics in these units are counts the program makes: with the hash
#: seed pinned they repeat exactly, so any move is a real one.
EXACT_UNITS = frozenset({"pages", "count", "bytes", "ratio"})

#: ``BENCHMARK.json``'s bounds have to hold the spread between seeds.
#: Two reports of one seed differ by machine noise only, which the speed
#: gauge leaves at a few percent: hold them to a tenth.
SAME_SEED_BOUND = 0.10

#: Provenance fields that must agree for two reports to be comparable.
MUST_MATCH = ("seed", "scale", "seconds", "passes", "quick")


def worse_by(old: float, new: float, better: str) -> float:
    """Relative change in the bad direction (negative: an improvement)."""
    if old == 0:
        return 0.0 if new == 0 else float("inf")
    change = (new - old) / abs(old)
    return change if better == "lower" else -change


def verdict(old: float, new: float, better: str, bound: float, exact: bool,
            old_runs: Optional[List[float]] = None,
            new_runs: Optional[List[float]] = None) -> str:
    """``better | same | worse | unresolved`` for one metric.

    ``old_runs``/``new_runs`` are repeated readings of the metric (per
    pass, or per set-up).  Paired readings whose ratios spread wider
    than the bound make the row unresolved — unless every reading of
    the change is better than every reading of the parent.
    """
    delta = worse_by(old, new, better)
    if exact:
        return "worse" if delta > 0 else "better" if delta < 0 else "same"
    if old_runs and new_runs and len(old_runs) == len(new_runs) > 1:
        paired = [worse_by(o, n, better) for o, n in zip(old_runs, new_runs)]
        if max(paired) - min(paired) > bound:
            sign = 1 if better == "lower" else -1
            if max(sign * n for n in new_runs) < min(sign * o for o in old_runs):
                return "better"
            if min(paired) > bound:
                return "worse"
            return "unresolved"
    if delta > bound:
        return "worse"
    if delta < -bound:
        return "better"
    return "same"


def repeated_readings(entry: dict, metric: str) -> Optional[List[float]]:
    if metric == "setup_s":
        return entry.get("setup_samples_s")
    values = [p.get(metric) for p in entry.get("passes", ())]
    return values if values and all(v is not None for v in values) else None


def compare(old: dict, new: dict, contract: dict) -> Tuple[List[tuple], List[str]]:
    """Rows ``(workload, metric, old, new, worse_by, verdict)`` and the
    reasons, if any, why the reports cannot be compared."""
    refusals = [
        f"{key}: {old['provenance'].get(key)!r} vs {new['provenance'].get(key)!r}"
        for key in MUST_MATCH
        if old["provenance"].get(key) != new["provenance"].get(key)
    ]
    rows = []
    for name, old_entry in old["workloads"].items():
        new_entry = new["workloads"].get(name)
        if new_entry is None:
            continue
        for spec in contract["end_to_end"]:
            metric = spec["name"]
            a = old_entry["end_to_end"][metric]
            b = new_entry["end_to_end"][metric]
            rows.append((
                name, metric, a, b, worse_by(a, b, spec["better"]),
                verdict(
                    a, b, spec["better"], min(spec["bound"], SAME_SEED_BOUND),
                    spec["unit"] in EXACT_UNITS,
                    repeated_readings(old_entry, metric),
                    repeated_readings(new_entry, metric),
                ),
            ))
        if new_entry["failed"] > old_entry["failed"]:
            rows.append((name, "failed", old_entry["failed"],
                         new_entry["failed"], float("inf"), "worse"))
    return rows, refusals


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("old", help="report of the parent commit")
    parser.add_argument("new", help="report of the change")
    args = parser.parse_args(argv)
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    old = json.loads(Path(args.old).read_text())
    new = json.loads(Path(args.new).read_text())
    rows, refusals = compare(old, new, contract)
    if refusals:
        print("refusing to compare reports of different runs:", file=sys.stderr)
        for reason in refusals:
            print(f"  {reason}", file=sys.stderr)
        return 2
    print(f"{'workload':<14} {'metric':<16} {'parent':>12} {'change':>12} "
          f"{'ratio (change/parent)':>22}  verdict")
    for name, metric, a, b, _delta, outcome in rows:
        ratio = f"{b / a:.3f} of {a:.4g}" if a else "-"
        print(f"{name:<14} {metric:<16} {a:>12.5g} {b:>12.5g} {ratio:>22}  {outcome}")
    bad = [r for r in rows if r[5] == "worse"]
    unresolved = sum(r[5] == "unresolved" for r in rows)
    print(f"\n{len(bad)} worse, {unresolved} unresolved, {len(rows)} rows")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
