"""Smoke check (``python -m pytest -m smoke``; tier-1 deselects it).

Planning stays metadata-only: on ``sk_range``, ``engine.plan_ms`` is
under a tenth of ``engine.execute_ms``.  One traced benchmark run —
240 queries at a seed without goldens, so the invariants and the
independent oracle are its correctness checks — as a subprocess.  The
ratio is taken inside one process, so machine speed cancels; a plan
that scans the object store again reads ~4.5 × execute.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.smoke

ROOT = Path(__file__).resolve().parents[2]


def test_plan_is_under_a_tenth_of_execute():
    done = subprocess.run(
        [sys.executable, str(ROOT / "perf" / "run.py"),
         "--workload", "sk_range", "--seed", "3", "--seconds", "3",
         "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    line = json.loads(done.stdout.splitlines()[-1])
    plan = line["metrics"]["engine.plan_ms"]["value"]
    execute = line["metrics"]["engine.execute_ms"]["value"]
    assert line["correct"] is True and line["failed"] == 0
    assert 0 < plan < 0.1 * execute, (plan, execute)
