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
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

SRC = ROOT / "src"

#: Every ``repro`` module whose export list a user may import from.
EXPORTING = sorted(
    ".".join(path.relative_to(SRC).with_suffix("").parts).removesuffix(
        ".__init__"
    )
    for path in (SRC / "repro").rglob("*.py")
    if "__all__" in path.read_text(encoding="utf-8")
)


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


@pytest.mark.parametrize("package", EXPORTING)
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    assert module.__all__
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


# ----------------------------------------------------------------------
# Nothing in src/ that only a test names
# ----------------------------------------------------------------------
#: Where a name of ``src/repro`` counts as used: the engine itself, the
#: benchmark harness (with the probe targets it resolves from strings),
#: the figure suite and the examples — every entry point but the tests.
USERS = ("src", "perf", "benchmarks", "examples")

#: Public names no code here calls, because a protocol outside it does.
PROTOCOL = {
    "do_GET": "http.server's request handler dispatches a GET to it by name",
    "log_message": "http.server's per-request log hook, overridden to stay quiet",
}

#: Public names only tests name today, each with what keeps it.  The
#: set may only shrink: a name that leaves it must leave ``src/`` or
#: find a caller.
OWED = {
    "repro.network.ch:ContractionHierarchy.node_distance":
        "the oracle's module goes whole once perf/ stops resolving it",
    "repro.network.hub_labels:HubLabelBackend.node_distance":
        "the oracle's module goes whole once perf/ stops resolving it",
}

_IDENT = re.compile(r"[A-Za-z_]\w*")


def _skipped_strings(tree):
    """Docstrings and the string entries of ``__all__`` lists."""
    skipped = set()
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if (
            isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                              ast.AsyncFunctionDef))
            and body and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
        ):
            skipped.add(id(body[0].value))
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            skipped.update(id(n) for n in ast.walk(node.value))
    return skipped


def name_uses(path: Path, in_src: bool):
    """``(name, line)`` of each use of a name in ``path``: identifiers
    and attributes, and names in string constants (a probe target, a
    ``getattr`` hook).  In ``src/`` an import is no use, and a string
    counts only when it is one identifier; elsewhere an import counts
    and a string's every identifier does (``"module:Class.method"``)."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    skipped = _skipped_strings(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom) and not in_src:
            for alias in node.names:
                yield alias.name, node.lineno
        elif (
            isinstance(node, ast.Constant) and isinstance(node.value, str)
            and id(node) not in skipped
        ):
            if not in_src:
                for token in _IDENT.findall(node.value):
                    yield token, node.lineno
            elif node.value.isidentifier():
                yield node.value, node.lineno


def public_definitions(path: Path):
    """``(qualified name, name, first line, last line)`` of every public
    module-level function and class in ``path``, and of every public
    method of its classes."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))

    def walk(body, prefix):
        for node in body:
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                if not node.name.startswith("_"):
                    yield (
                        prefix + node.name, node.name, node.lineno,
                        node.end_lineno,
                    )
                if isinstance(node, ast.ClassDef):
                    yield from walk(node.body, f"{prefix}{node.name}.")

    yield from walk(tree.body, "")


def protocol_members():
    """Methods of the ``Protocol`` classes and the ``abc`` abstract
    methods under ``src/repro``: their callers hold the protocol, not
    the class, so a use names the protocol's method."""
    names = set()
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            protocol = any(
                getattr(base, "id", getattr(base, "attr", None)) == "Protocol"
                for base in node.bases
            )
            for item in node.body:
                if not isinstance(item, ast.FunctionDef):
                    continue
                abstract = any(
                    getattr(d, "attr", getattr(d, "id", None))
                    == "abstractmethod"
                    for d in item.decorator_list
                )
                if protocol or abstract:
                    names.add(item.name)
    return names


def unnamed_definitions():
    """Qualified names (``module:Class.method``) of the public
    definitions under ``src/repro`` that nothing in :data:`USERS`
    names, outside the definition itself."""
    uses = {}
    for top in USERS:
        for path in sorted((ROOT / top).rglob("*.py")):
            for name, line in name_uses(path, top == "src"):
                uses.setdefault(name, []).append((path, line))
    allowed = set(PROTOCOL) | protocol_members()
    unnamed = []
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        module = path.relative_to(ROOT / "src").with_suffix("")
        for qualname, name, first, last in public_definitions(path):
            if name in allowed:
                continue
            if any(
                not (where == path and first <= line <= last)
                for where, line in uses.get(name, ())
            ):
                continue
            unnamed.append(f"{'.'.join(module.parts)}:{qualname}")
    return unnamed


def test_every_public_definition_has_a_caller_outside_the_tests():
    unnamed = unnamed_definitions()
    assert [name for name in unnamed if name not in OWED] == []
    assert sorted(set(OWED) - set(unnamed)) == []


# ----------------------------------------------------------------------
# Nothing in src/ that only a test sets
# ----------------------------------------------------------------------
#: Why a setting may stay with no caller outside the tests.  The set is
#: closed: a parameter with any other reason becomes a constant.
TIME_FAKE = "a test's fake of time"
ADDRESS = "a deployment address"
PERF = "perf/ passes or resolves it"

#: Defaulted parameters no call in :data:`USERS` passes, each with its
#: reason.  The set may only shrink: a parameter that leaves it must
#: leave its signature or find a caller.
UNSET = {
    "repro.obs.rollup:SlidingWindowRollup.__init__(clock)": TIME_FAKE,
    "repro.core.database:Database.serve_telemetry(host)": ADDRESS,
    "repro.network.distance:PairwiseDistanceComputer.__init__(backend)": PERF,
    "repro.network.ch:ContractionHierarchy.node_distance(cutoff)": PERF,
    "repro.network.hub_labels:HubLabelBackend.node_distance(cutoff)": PERF,
}


def defaulted_parameters(function, bound: bool):
    """``(name, position)`` of each parameter of ``function`` that has
    a default; ``position`` counts the call's positional arguments
    (``None`` for a keyword-only one), and a bound method's first
    parameter is no argument."""
    args = function.args
    positional = args.posonlyargs + args.args
    if bound:
        positional = positional[1:]
    first = len(positional) - len(args.defaults)
    yield from (
        (arg.arg, i) for i, arg in enumerate(positional) if i >= first
    )
    yield from (
        (arg.arg, None)
        for arg, default in zip(args.kwonlyargs, args.kw_defaults)
        if default is not None
    )


def public_settings():
    """``(qualified name, callee, parameter, position)`` of every
    defaulted parameter of a public ``src/repro`` function, method or
    ``__init__``; a call reaches an ``__init__`` through its class's
    name."""
    for path in sorted((SRC / "repro").rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in tree.body:
            if not isinstance(
                node, (ast.FunctionDef, ast.ClassDef)
            ) or node.name.startswith("_"):
                continue
            if isinstance(node, ast.FunctionDef):
                for param, position in defaulted_parameters(node, False):
                    yield f"{module}:{node.name}", node.name, param, position
                continue
            for item in node.body:
                if not isinstance(item, ast.FunctionDef) or (
                    item.name.startswith("_") and item.name != "__init__"
                ):
                    continue
                static = any(
                    getattr(d, "id", None) == "staticmethod"
                    for d in item.decorator_list
                )
                callee = node.name if item.name == "__init__" else item.name
                for param, position in defaulted_parameters(item, not static):
                    yield (
                        f"{module}:{node.name}.{item.name}", callee, param,
                        position,
                    )


def passes(call: ast.Call, param: str, position) -> bool:
    """Whether ``call`` sets ``param``: by keyword, by position, or
    through a ``*args`` / ``**kwargs`` that may hold it."""
    if any(k.arg is None or k.arg == param for k in call.keywords):
        return True
    if position is None:
        return False
    return any(
        i == position or (isinstance(arg, ast.Starred) and i <= position)
        for i, arg in enumerate(call.args)
    )


def unset_settings():
    """``module:qualname(parameter)`` of each public setting under
    ``src/repro`` that no call in :data:`USERS` passes, a call being
    matched to its callee by name (``cls(...)`` to its class's)."""
    calls = {}
    for top in USERS:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
            for node in ast.walk(tree):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "id", None) or getattr(
                        node.func, "attr", None
                    )
                    calls.setdefault(name, []).append(node)
                elif isinstance(node, ast.ClassDef):
                    calls.setdefault(node.name, []).extend(
                        call for call in ast.walk(node)
                        if isinstance(call, ast.Call)
                        and getattr(call.func, "id", None) == "cls"
                    )
    return [
        f"{qualname}({param})"
        for qualname, callee, param, position in public_settings()
        if not any(passes(c, param, position) for c in calls.get(callee, ()))
    ]


def test_every_public_setting_has_a_caller_outside_the_tests():
    unset = unset_settings()
    assert set(UNSET.values()) <= {TIME_FAKE, ADDRESS, PERF}
    assert [name for name in unset if name not in UNSET] == []
    assert sorted(set(UNSET) - set(unset)) == []
