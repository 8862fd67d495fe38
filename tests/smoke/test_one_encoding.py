"""Smoke check (``python -m pytest -m smoke``; tier-1 deselects it).

A 4-worker traced run writes its 40 queries to a ``--metrics`` file, a
``--slowlog`` and a ``--record`` journal: the three files hold one
encoding of the same queries, and the journal replays.
"""

import json

import pytest

from repro.cli import main

pytestmark = pytest.mark.smoke


def by_sequence(path, record_type):
    records = [json.loads(line) for line in path.read_text().splitlines()]
    return {
        r["sequence"]: r["stats"] for r in records
        if r.get("type") == record_type
    }


def test_three_files_hold_one_encoding_and_the_journal_replays(
    tmp_path, capsys
):
    metrics = tmp_path / "metrics_concurrent.jsonl"
    slowlog = tmp_path / "slowlog_concurrent.jsonl"
    journal = tmp_path / "flight_concurrent.jsonl"
    assert main([
        "sk", "SYN", "--scale", "0.25", "--queries", "40", "--workers", "4",
        "--metrics", str(metrics), "--trace", "--slowlog", str(slowlog),
        "--record", str(journal),
    ]) == 0
    lines = by_sequence(metrics, "query")
    slow = by_sequence(slowlog, "slow_query")
    flights = by_sequence(journal, "flight")
    assert sorted(lines) == list(range(40))
    assert lines == slow == flights
    assert main(["replay", str(journal)]) == 0
    assert "verdict: PASS" in capsys.readouterr().out
