"""What lives where: the engine in ``src/``, the references in ``tests/``.

``tests/oracle.py`` shares no code with the engine, so it imports no
``repro`` module; ``tests/reference.py`` may.  Nothing under ``src/``
imports from the tests, so a reference moved out of the engine cannot
creep back onto a query's path.  And every name a package exports
resolves, so a name removed from a module but left in an export list
fails here rather than at a user's ``from repro import ...``.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

PACKAGES = [
    "repro", "repro.core", "repro.network", "repro.engine", "repro.index",
    "repro.obs",
]


def imported_modules(path: Path):
    """Each module an ``import`` or ``from ... import`` in ``path``
    names; a relative one keeps its leading dots."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            yield "." * node.level + (node.module or "")


def test_oracle_imports_no_repro_module():
    modules = list(imported_modules(ROOT / "tests" / "oracle.py"))
    assert "heapq" in modules  # the walk sees the file's imports
    assert [
        m for m in modules if m.split(".")[0] == "repro" or m.startswith(".")
    ] == []


def test_src_imports_nothing_from_the_tests():
    sources = sorted((ROOT / "src").rglob("*.py"))
    assert sources
    offenders = [
        f"{path.relative_to(ROOT)}: {module}"
        for path in sources
        for module in imported_modules(path)
        if module.split(".")[0] in ("tests", "benchmarks", "perf")
    ]
    assert offenders == []


@pytest.mark.parametrize("package", PACKAGES)
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    assert module.__all__
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
