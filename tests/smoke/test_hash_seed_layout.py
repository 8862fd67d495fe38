"""Smoke check (``python -m pytest -m smoke``; tier-1 deselects it).

What ``build_index`` writes does not depend on the string hash seed.
The builds iterate sets — the staging pass that feeds IF's postings
and the signature rows, SIF-P's partitioning (over per-object
frozensets), SIF-G's pairs — so each must come out in an order of its
own making.  The seed is fixed
when the interpreter starts: the layout digest of
``tests/datasets/test_catalog.py`` (every page, tree root, signature
row and ``size_bytes()`` of IF, SIF, SIF-P and SIF-G on SYN at scale
0.1) is computed in two subprocesses, under seeds 0 and 1.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.smoke

ROOT = Path(__file__).resolve().parents[2]

DIGESTS = """
from repro.datasets.catalog import build_dataset
from tests.datasets.test_catalog import PINNED_INDEX_DIGESTS, index_layout_digest
for kind in sorted(PINNED_INDEX_DIGESTS):
    print(kind, index_layout_digest(build_dataset("SYN", scale=0.1), kind))
"""


def layout_digests(hash_seed):
    """``kind digest`` lines of one fresh interpreter."""
    path = os.pathsep.join(
        filter(None, (str(ROOT / "src"), str(ROOT), os.environ.get("PYTHONPATH")))
    )
    done = subprocess.run(
        [sys.executable, "-c", DIGESTS],
        env=dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=path),
        capture_output=True, text=True, cwd=ROOT,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return done.stdout.splitlines()


def test_index_layout_does_not_depend_on_the_hash_seed():
    digests = [layout_digests(seed) for seed in (0, 1)]
    assert len(digests[0]) == 4
    assert digests[0] == digests[1], digests
