"""Checks on the package source itself, run with the other tier-1 tests."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "rkhs_cert"

# An import marked so stays: the benchmark's tracer patches the name in that module.
KEEP_MARKER = "# noqa: F401"


def imports(source: str) -> list:
    """(line, name, kept) for each name a module's imports bind, ``from __future__`` left out.

    ``kept`` is whether the import's statement carries KEEP_MARKER on any of its lines.
    """
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        kept = any(KEEP_MARKER in line for line in lines[node.lineno - 1 : node.end_lineno])
        for alias in node.names:
            imported.append((node.lineno, alias.asname or alias.name.split(".")[0], kept))
    return imported


def unused_imports(source: str) -> list:
    """Names a module imports and never reads, as (line, name), in source order.

    Imports kept by KEEP_MARKER are left out.  A name counts as read
    where it appears as an ``ast.Name``, which covers ``module.attr`` and
    annotations; a name read only inside a string is not seen.
    """
    read = {node.id for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Name)}
    return sorted((line, name) for line, name, kept in imports(source) if not kept and name not in read)


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


# The benchmark's tracer: it patches the names KEEP_MARKER keeps.
TRACER = PACKAGE.parent.parent / "perfbench" / "trace_child.py"


def patched_attributes(tracer_source: str) -> set:
    """(module, attribute) pairs a tracer patches with ``patch(module, attr, ...)``.

    ``module`` is a plain name; ``attr`` is a string, or a name a ``for`` loop
    takes from a tuple or list of strings.  A patch on a class
    (``patch(kernels.KernelSpec, ...)``) names no module and is left out.
    """
    tree = ast.parse(tracer_source)
    loops = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.For) and isinstance(node.target, ast.Name):
            if isinstance(node.iter, (ast.Tuple, ast.List)):
                loops[node.target.id] = [e.value for e in node.iter.elts if isinstance(e, ast.Constant)]
    patched = set()
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "patch"):
            continue
        if len(node.args) < 2 or not isinstance(node.args[0], ast.Name):
            continue
        module, attr = node.args[0].id, node.args[1]
        if isinstance(attr, ast.Constant):
            patched.add((module, attr.value))
        elif isinstance(attr, ast.Name):
            patched.update((module, value) for value in loops.get(attr.id, ()))
    return patched


def stale_keeps(sources: dict, tracer_source: str) -> list:
    """(module, line, name) for each import KEEP_MARKER keeps that the tracer does not patch there.

    ``sources`` maps a module's name to its source.
    """
    patched = patched_attributes(tracer_source)
    return sorted(
        (module, line, name)
        for module, source in sources.items()
        for line, name, kept in imports(source)
        if kept and (module, name) not in patched
    )


def test_stale_keep_check_finds_one():
    tracer = (
        "from rkhs_cert import cli, witness\n"
        "for attr in ('resolve_kernel', 'resolve_function'):\n"
        "    patch(cli, attr, f'registry.{attr}')\n"
        "patch(witness, 'neumaier_sum', 'quadform.neumaier_sum')\n"
        "patch(kernels.KernelSpec, 'block_terms', 'kernels.eval_mp')\n"
    )
    sources = {
        "cli": "from .registry import resolve_function, resolve_kernel  # noqa: F401\n",
        "witness": (
            "from .quadform import neumaier_sum  # noqa: F401\n"
            "from .quadform import (  # noqa: F401\n"
            "    block_terms,\n"
            ")\n"
            "from .quadform import quadratic_form\n"
        ),
    }
    assert stale_keeps(sources, tracer) == [("witness", 2, "block_terms")]


def test_every_kept_import_is_one_the_tracer_patches():
    """A KEEP_MARKER on an import the tracer no longer patches would hide an unused import."""
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py") if p.name != "__init__.py"}
    assert any(kept for source in sources.values() for _, _, kept in imports(source))
    assert stale_keeps(sources, TRACER.read_text()) == []


# The one module that may write or read JSON: canonical_dumps and load_json are its formats.
JSON_MODULE = "serialize.py"

JSON_WRITES = ("dump", "dumps")
JSON_READS = ("load", "loads")


def json_calls(source: str, names: tuple) -> list:
    """Lines that call json's functions ``names``, under any name an import gives them."""
    tree = ast.parse(source)
    modules, functions = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.asname or alias.name for alias in node.names if alias.name == "json")
        elif isinstance(node, ast.ImportFrom) and node.module == "json":
            functions.update(alias.asname or alias.name for alias in node.names if alias.name in names)
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in names:
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
    assert json_calls(source, JSON_WRITES) == [5, 6, 7]


def test_only_serialize_writes_json():
    modules = sorted(PACKAGE.glob("*.py"))
    assert JSON_MODULE in {p.name for p in modules}
    writers = {p.name: found for p in modules if (found := json_calls(p.read_text(), JSON_WRITES))}
    assert set(writers) <= {JSON_MODULE}


def test_json_read_check_finds_each_spelling():
    source = (
        "import json\n"
        "import json as j\n"
        "from json import loads as parse, load\n"
        "json.dumps(1)\n"
        "json.loads('1')\n"
        "j.load(f)\n"
        "parse('1')\n"
        "load(f)\n"
        "pickle.loads(b'')\n"
    )
    assert json_calls(source, JSON_READS) == [5, 6, 7, 8]


def test_only_serialize_reads_json():
    modules = sorted(PACKAGE.glob("*.py"))
    assert JSON_MODULE in {p.name for p in modules}
    readers = {p.name: found for p in modules if (found := json_calls(p.read_text(), JSON_READS))}
    assert set(readers) <= {JSON_MODULE}


# The one module that sums a list of terms: neumaier_sum's exact rounding is argued there.
SUMMER = "quadform.py"

SUM_FUNCTIONS = ("fsum", "mpf_sum")


def sum_calls(source: str) -> list:
    """Lines that call ``fsum`` or ``mpf_sum``, under any name an import gives them.

    A call counts as ``name(...)`` for a name imported as one of
    SUM_FUNCTIONS (from any module, under any alias), or as
    ``m.fsum(...)`` / ``m.a.mpf_sum(...)`` on a name an import binds.
    """
    tree = ast.parse(source)
    modules, functions = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                (functions if alias.name in SUM_FUNCTIONS else modules).add(alias.asname or alias.name)
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in SUM_FUNCTIONS:
            root = func.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in modules:
                found.append(node.lineno)
        elif isinstance(func, ast.Name) and func.id in functions:
            found.append(node.lineno)
    return sorted(found)


def test_sum_check_finds_each_spelling():
    source = (
        "import mpmath\n"
        "import mpmath.libmp as lib\n"
        "from mpmath import fsum as total, libmp\n"
        "from mpmath.libmp import mpf_sum\n"
        "mpmath.fsum([1])\n"
        "lib.mpf_sum([])\n"
        "total([1])\n"
        "mpf_sum([])\n"
        "mpmath.mp.fsum([1])\n"
        "libmp.mpf_sum([])\n"
        "fsum = 2\n"
        "values.fsum([1])\n"
        "mpmath.nsum(f, [1, 2])\n"
    )
    assert sum_calls(source) == [5, 6, 7, 8, 9, 10]


def test_only_quadform_sums():
    modules = sorted(PACKAGE.glob("*.py"))
    assert SUMMER in {p.name for p in modules}
    summers = {p.name: found for p in modules if (found := sum_calls(p.read_text()))}
    assert set(summers) == {SUMMER}
