"""Smoke check (``python -m pytest -m smoke``; tier-1 deselects it).

At ``perf/``'s scale, SYN 1.0, the store's keyword values total at most
4 MiB: 3.0 MiB as sorted tuples, against 19.1 MiB as one frozenset an
object (``sys.getsizeof``, 20 000 objects of 14.9 terms).  Tier-1 holds
the per-object average on SYN 0.1 (``tests/network/test_objects.py``).
"""

import sys

import pytest

from repro.datasets.catalog import build_dataset

pytestmark = pytest.mark.smoke


def test_keyword_values_total_at_most_4_mib():
    db = build_dataset("SYN", scale=1.0)
    total = sum(sys.getsizeof(o.keywords) for o in db.store)
    assert total <= 4 * 2**20, f"{total / 2**20:.1f} MiB"
