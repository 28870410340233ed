"""Checks on the package source itself, run with the other tier-1 tests."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "rkhs_cert"

# An import marked so stays: the benchmark's tracer patches the name in that module.
KEEP_MARKER = "# noqa: F401"


def unused_imports(source: str) -> list:
    """Names a module imports and never reads, as (line, name), in source order.

    ``from __future__`` imports and imports whose statement carries
    KEEP_MARKER on any of its lines are left out.  A name counts as read
    where it appears as an ``ast.Name``, which covers ``module.attr`` and
    annotations; a name read only inside a string is not seen.
    """
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if any(KEEP_MARKER in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            imported.append((node.lineno, name))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for line, name in imported if name not in read)


def test_unused_import_check_finds_one():
    source = (
        "from typing import Any, Callable\n"
        "import math, os.path\n"
        "from .quadform import assemble_gram  # noqa: F401\n"
        "def f(x: Any) -> float:\n"
        "    return math.sqrt(x)\n"
    )
    assert unused_imports(source) == [(1, "Callable"), (2, "os")]


def test_package_modules_import_nothing_unused():
    """``__init__.py`` re-exports by importing, so it is not checked."""
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = {p.name: found for p in modules if (found := unused_imports(p.read_text()))}
    assert unused == {}


# The one module that may write JSON: its canonical_dumps is checked against json's own text.
JSON_WRITER = "serialize.py"


def json_writes(source: str) -> list:
    """Lines that call ``json.dump`` or ``json.dumps``, under any name an import gives them."""
    tree = ast.parse(source)
    modules, functions = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.asname or alias.name for alias in node.names if alias.name == "json")
        elif isinstance(node, ast.ImportFrom) and node.module == "json":
            functions.update(alias.asname or alias.name for alias in node.names if alias.name in ("dump", "dumps"))
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in ("dump", "dumps"):
            if isinstance(func.value, ast.Name) and func.value.id in modules:
                found.append(node.lineno)
        elif isinstance(func, ast.Name) and func.id in functions:
            found.append(node.lineno)
    return sorted(found)


def test_json_write_check_finds_each_spelling():
    source = (
        "import json\n"
        "import json as j\n"
        "from json import dumps as d\n"
        "json.loads('1')\n"
        "json.dumps(1)\n"
        "j.dump(1, f)\n"
        "d(1)\n"
        "text.dumps(1)\n"
    )
    assert json_writes(source) == [5, 6, 7]


def test_only_serialize_writes_json():
    modules = sorted(PACKAGE.glob("*.py"))
    assert JSON_WRITER in {p.name for p in modules}
    writers = {p.name: found for p in modules if (found := json_writes(p.read_text()))}
    assert set(writers) <= {JSON_WRITER}
