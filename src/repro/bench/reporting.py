"""Plain-text tabular reporting for the benchmark harness.

The benchmarks print the same rows/series the paper's figures plot;
this module renders them as aligned text tables so ``pytest -s`` output
can be compared against the paper directly (see EXPERIMENTS.md).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

__all__ = ["format_table", "print_table", "save_csv", "slugify"]


def format_table(rows: Sequence[Dict[str, object]], title: str = "") -> str:
    """Render dict rows as an aligned text table."""
    if not rows:
        return f"{title}\n(empty)" if title else "(empty)"
    # Union of keys in first-seen order: rows may carry different stage
    # columns (e.g. SEQ's greedy vs COM's maintenance).
    columns = list(rows[0].keys())
    seen = set(columns)
    for row in rows[1:]:
        for key in row:
            if key not in seen:
                seen.add(key)
                columns.append(key)
    widths = {
        c: max(len(str(c)), *(len(str(r.get(c, ""))) for r in rows)) for c in columns
    }
    lines: List[str] = []
    if title:
        lines.append(title)
    header = " | ".join(str(c).ljust(widths[c]) for c in columns)
    lines.append(header)
    lines.append("-+-".join("-" * widths[c] for c in columns))
    for row in rows:
        lines.append(
            " | ".join(str(row.get(c, "")).ljust(widths[c]) for c in columns)
        )
    return "\n".join(lines)


def print_table(rows: Sequence[Dict[str, object]], title: str = "") -> None:
    print()
    print(format_table(rows, title))


def save_csv(rows: Sequence[Dict[str, object]], path) -> None:
    """Write dict rows as a CSV file (for plotting the figure series)."""
    import csv
    from pathlib import Path

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if not rows:
        path.write_text("")
        return
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)


def slugify(title: str) -> str:
    """File-name-safe slug of a table title."""
    out = []
    for ch in title.lower():
        if ch.isalnum():
            out.append(ch)
        elif out and out[-1] != "-":
            out.append("-")
    return "".join(out).strip("-") or "table"
