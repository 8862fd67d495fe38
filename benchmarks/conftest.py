"""Shared benchmark fixtures.

Datasets and indexes are cached in one session-scoped
:class:`~repro.bench.harness.BenchContext`.  Set ``REPRO_BENCH_SCALE``
(e.g. ``0.25``) to shrink every dataset proportionally for a quick run.

Each benchmark prints the same rows/series its paper figure plots (via
``capsys.disabled()`` so the tables appear even under output capture),
with page reads and CPU milliseconds in separate columns, and asserts
the figure's qualitative *shape* — who wins, how trends move — on the
count that carries the paper's claim (page reads, candidates, false
hits, pairwise Dijkstras), never on absolute numbers.  Those counts
repeat exactly from run to run (IR's page reads alone move by under
1 % with the string hash seed, and IR is only ever compared at a
margin of 1.5x or more); CPU ms is printed for the reader and compared
only where time itself is the claim.  A figure's numbers live in its
``results/*.csv`` and nowhere else; a speed claim is made with
``perf/run.py`` and ``perf/compare.py``, not here.
"""

from __future__ import annotations

import pytest

from pathlib import Path

from repro.bench.harness import BenchContext
from repro.bench.reporting import format_table, save_csv, slugify

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def ctx() -> BenchContext:
    return BenchContext()


@pytest.fixture()
def show(capsys):
    """Print a table through pytest's capture and save it as CSV."""

    def _show(rows, title=""):
        with capsys.disabled():
            print()
            print(format_table(rows, title))
        if title:
            save_csv(rows, RESULTS_DIR / f"{slugify(title)}.csv")

    return _show


def _columns(reports, spec):
    """``<label>_<name>`` columns, grouped by name, from labelled reports.

    ``spec`` rows are ``(name, WorkloadReport attribute, scale, digits)``.
    """
    return {
        f"{label}_{name}": round(getattr(report, attr) * scale, digits)
        for name, attr, scale, digits in spec
        for label, report in reports.items()
    }


_CPU_MS = (("cpu_ms", "avg_wall_seconds", 1e3, 2),)


def sk_per_index(ctx, profile, kinds, config):
    """One SK workload against each index kind, as figure columns.

    Counts first — page reads, and the false-hit objects §3.1's
    signature test exists to avoid — then CPU milliseconds, which the
    figures print and do not compare.
    """
    reports = {
        kind.upper(): ctx.sk_report(profile, kind, config) for kind in kinds
    }
    counts = (
        ("pages", "avg_io", 1, 2),
        ("false_hits", "avg_false_hit_objects", 1, 1),
    )
    return _columns(reports, counts + _CPU_MS)


def seq_vs_com(ctx, profile, config, db_overrides=None):
    """SEQ and COM over one diversified workload, as figure columns.

    Counts first — they carry the paper's claims (§4, §5.2): page
    reads, candidates, pairwise Dijkstras, the share of COM queries
    whose expansion the §4.3 bound cut short — then CPU milliseconds,
    which the figures print and do not compare.
    """
    reports = {
        method.upper(): ctx.diversified_report(
            profile, "sif", method, config, db_overrides=db_overrides
        )
        for method in ("seq", "com")
    }
    counts = (
        ("pages", "avg_io", 1, 1),
        ("cands", "avg_candidates", 1, 1),
        ("dijkstras", "avg_pairwise_dijkstras", 1, 1),
    )
    com = reports["COM"]
    return {
        **_columns(reports, counts),
        "COM_early_term_pct": round(
            100.0 * com.total_early_terminations / com.num_queries, 1
        ),
        **_columns(reports, _CPU_MS),
    }
