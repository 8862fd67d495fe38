"""Smoke check (``python -m pytest -m smoke``; tier-1 deselects it).

Page reads do not depend on the string hash seed.  Query keywords are
fetched rarest-first (SIF-G: its pair cover, then the sorted singles)
and an update visits its keywords in their stored, sorted order, so
the 8-page LRU sees the same page sequence under any
``PYTHONHASHSEED``.  The seed is fixed when the interpreter starts, so
every run is a subprocess: SYN at scale 0.2, 60 queries, under seeds 1
and 3, on IF, SIF, SIF-P, IR and SIF-G plus one SIF update workload.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.smoke

SRC = Path(__file__).resolve().parents[2] / "src"

#: Run name -> the ``repro`` command line (``--metrics`` is appended).
RUNS = {
    index: ["sk", "SYN", "--scale", "0.2", "--index", index,
            "--queries", "60"]
    for index in ("if", "sif", "sif-p", "ir", "sif-g")
}
RUNS["update"] = [
    "update", "SYN", "--scale", "0.2", "--index", "sif", "--queries", "60",
    "--keywords", "3", "--k", "4", "--batches", "6",
    "--updates-per-batch", "20",
]


def physical_reads(argv, hash_seed, metrics):
    """Summed ``stats.io.physical_reads`` of one run's 60 queries."""
    path = os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH")))
    )
    done = subprocess.run(
        [sys.executable, "-m", "repro", *argv, "--metrics", str(metrics)],
        env=dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=path),
        capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    records = [json.loads(line) for line in metrics.read_text().splitlines()]
    queries = [r for r in records if r.get("type") == "query"]
    assert len(queries) == 60
    return sum(r["stats"]["io"]["physical_reads"] for r in queries)


@pytest.mark.parametrize("run", sorted(RUNS))
def test_page_reads_do_not_depend_on_the_hash_seed(run, tmp_path):
    reads = [
        physical_reads(RUNS[run], seed, tmp_path / f"seed{seed}.jsonl")
        for seed in (1, 3)
    ]
    assert reads[0] == reads[1] > 0, reads
