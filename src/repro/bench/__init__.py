"""Benchmark harness utilities."""

from .harness import BenchContext, bench_scale
from .reporting import format_table, print_table

__all__ = [
    "BenchContext",
    "bench_scale",
    "format_table",
    "print_table",
]
