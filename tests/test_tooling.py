"""Checks on the package source itself, run with the other tier-1 tests."""

import ast
from collections import Counter
from dataclasses import dataclass, field, fields
from pathlib import Path

from rkhs_cert import cli

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


# The one module that may write or read JSON: canonical_dumps, load_json and load_certificate are its formats.
JSON_MODULE = "serialize.py"

JSON_WRITES = ("dump", "dumps")
JSON_READS = ("load", "loads", "JSONDecoder", "raw_decode", "scan_once", "scanstring", "make_scanner")


def json_calls(source: str, names: tuple) -> list:
    """Lines that use json's ``names``, under any name an import gives them.

    A use is ``m.name``, on a name that an import binds to json, to one of
    its submodules or to anything else imported from them, through attribute
    and call chains (``json.decoder.scanstring``,
    ``json.JSONDecoder().scan_once``), or a name imported as one of
    ``names`` from json or a submodule (``from json.decoder import scanstring``).
    """
    tree = ast.parse(source)
    modules, functions = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(
                alias.asname or "json" for alias in node.names if alias.name.partition(".")[0] == "json"
            )
        elif isinstance(node, ast.ImportFrom) and (node.module or "").partition(".")[0] == "json":
            for alias in node.names:
                (functions if alias.name in names else modules).add(alias.asname or alias.name)
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in names:
            root = node.value
            while isinstance(root, (ast.Attribute, ast.Call)):
                root = root.value if isinstance(root, ast.Attribute) else root.func
            if isinstance(root, ast.Name) and root.id in modules:
                found.add(node.lineno)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id in functions:
            found.add(node.lineno)
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
        "import json.decoder\n"
        "import json.scanner as js\n"
        "from json import decoder\n"
        "from json.decoder import scanstring as scan, JSONDecoder\n"
        "json.decoder.scanstring('\"a\"', 1)\n"
        "json.JSONDecoder().raw_decode('1')\n"
        "js.make_scanner(context)\n"
        "read = decoder.JSONDecoder(strict=False).scan_once\n"
        "scan('\"a\"', 1)\n"
        "JSONDecoder\n"
        "text.scanstring('1')\n"
        "decoder.WHITESPACE.match(' ')\n"
    )
    assert json_calls(source, JSON_READS) == [5, 6, 7, 8, 14, 15, 16, 17, 18, 19]


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


def undeclared_fields(config_class: type) -> list:
    """Names of the fields of dataclass ``config_class`` that declare no config Domain, in field order."""
    return [f.name for f in fields(config_class) if not isinstance(f.metadata.get("domain"), cli.Domain)]


def test_undeclared_field_check_finds_each_one():
    @dataclass(frozen=True)
    class Config:
        declared: int = cli._key(1, "declared", int, min=0)
        bare: int = 2
        helped: str = field(default="x", metadata={"help": "a help but no domain"})
        listed: tuple = cli._key((), "listed", float, distinct=True)

    assert undeclared_fields(Config) == ["bare", "helped"]


def test_every_run_config_field_declares_a_domain():
    assert fields(cli.RunConfig)
    assert undeclared_fields(cli.RunConfig) == []


# The one module that builds an array: a window is packed, or not, by one rule there.
PACKER = "sequences.py"


# The array module's type, under both of its names.
ARRAY_TYPES = ("array", "ArrayType")


def array_builds(source: str) -> list:
    """Lines that call ``array.array`` under any name an import gives it.

    A build is ``name(...)`` for a name imported as one of ARRAY_TYPES from
    the ``array`` module (under any alias), or ``m.array(...)`` /
    ``m.ArrayType(...)`` on a name that ``import array`` binds.
    """
    tree = ast.parse(source)
    modules, functions = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.asname or alias.name for alias in node.names if alias.name == "array")
        elif isinstance(node, ast.ImportFrom) and node.module == "array":
            functions.update(alias.asname or alias.name for alias in node.names if alias.name in ARRAY_TYPES)
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in ARRAY_TYPES:
            if isinstance(func.value, ast.Name) and func.value.id in modules:
                found.append(node.lineno)
        elif isinstance(func, ast.Name) and func.id in functions:
            found.append(node.lineno)
    return sorted(found)


def test_array_build_check_finds_each_spelling():
    source = (
        "import array\n"
        "import array as arrays\n"
        "from array import array as packed, typecodes, ArrayType\n"
        "array.array('q')\n"
        "arrays.array('q', [1])\n"
        "packed('q')\n"
        "ArrayType('q')\n"
        "array.ArrayType('q')\n"
        "typecodes.count('q')\n"
        "numpy.array([1])\n"
        "isinstance(x, packed)\n"
        "x.typecode == 'q'\n"
    )
    assert array_builds(source) == [4, 5, 6, 7, 8]


def test_only_sequences_builds_an_array():
    modules = sorted(PACKAGE.glob("*.py"))
    assert PACKER in {p.name for p in modules}
    builders = {p.name: found for p in modules if (found := array_builds(p.read_text()))}
    assert set(builders) == {PACKER}


def unread_private_functions(sources: dict) -> list:
    """(module, line, name) for each private top-level function that no source reads outside its own ``def``.

    ``sources`` maps a module's name to its source.  A function is private
    when its name starts with one underscore (dunders are left out).  It is
    read where its name appears as an ``ast.Name`` or as the attribute of an
    ``ast.Attribute`` (``cli._key``), in any module; a read inside its own
    body, a recursive call, does not count.
    """

    def reads(node: ast.AST) -> Counter:
        return Counter(
            n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))
        )

    trees = {module: ast.parse(source) for module, source in sources.items()}
    everywhere = sum((reads(tree) for tree in trees.values()), Counter())
    return sorted(
        (module, node.lineno, node.name)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and everywhere[node.name] == reads(node)[node.name]
    )


def test_unread_private_function_check_finds_one():
    sources = {
        "witness": (
            "def _called(x):\n"
            "    return x\n"
            "def _recursive(n):\n"
            "    return n and _recursive(n - 1)\n"
            "def _read_elsewhere():\n"
            "    pass\n"
            "def __getattr__(name):\n"
            "    pass\n"
            "def public():\n"
            "    return _called(1)\n"
            "class Table:\n"
            "    def _method(self):\n"
            "        pass\n"
        ),
        "cli": "from . import witness\nwitness._read_elsewhere()\n",
    }
    assert unread_private_functions(sources) == [("witness", 3, "_recursive")]


def test_every_private_function_is_read_somewhere():
    """A private helper nothing reads is dead code: its callers are gone."""
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    assert unread_private_functions(sources) == []


def unread_private_names(source: str) -> list:
    """(line, name) for each private name a module defines at its top level and never reads.

    A name is private when it starts with one underscore (dunders are left
    out).  The top level defines it by ``def``, ``class`` or an assignment,
    plain, annotated or augmented, to it or to a tuple holding it.  It is
    read where it appears as an ``ast.Name`` that loads it, anywhere in the
    module but inside its own ``def`` or ``class``; a read by another
    module, or inside a string, is not seen.
    """
    tree = ast.parse(source)

    def loads(node: ast.AST) -> Counter:
        return Counter(n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load))

    defined = []  # (line, name, the node whose own reads do not count)
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.append((node.lineno, node.name, node))
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            defined.extend((node.lineno, name, None) for name in names)
    everywhere = loads(tree)
    return sorted(
        {
            (line, name)
            for line, name, node in defined
            if name.startswith("_")
            and not name.startswith("__")
            and everywhere[name] == (loads(node)[name] if node else 0)
        }
    )


def test_unread_private_name_check_finds_each_kind():
    source = (
        "import mpmath\n"
        "_make_mpf = mpmath.mp.make_mpf\n"
        "_LIMIT: int = 64\n"
        "_read, _unread = 1, 2\n"
        "__all__ = ['public']\n"
        "def _recursive(n):\n"
        "    return n and _recursive(n - 1)\n"
        "class _Unused:\n"
        "    size = _LIMIT\n"
        "def public(x):\n"
        "    _local = 3\n"
        "    return x + _read + _local\n"
    )
    assert unread_private_names(source) == [(2, "_make_mpf"), (4, "_unread"), (6, "_recursive"), (8, "_Unused")]


def test_every_private_module_name_is_read_in_its_module():
    """A private module-level name its own module never reads is dead code, or a helper other modules reach into."""
    modules = sorted(PACKAGE.glob("*.py"))
    unread = {p.name: found for p in modules if (found := unread_private_names(p.read_text()))}
    assert unread == {}


# The CLI module: a task is one record of its table of tasks, never a branch on the task's name.
TASK_MODULE = "cli.py"


def task_name_branches(source: str, names: tuple) -> list:
    """(line, name) for each function that compares a value against two or more of ``names``.

    A comparison is an ``ast.Compare`` with a string of ``names`` as an
    operand, or inside a tuple, list or set operand (``task in ("psd",
    "decay")``), or a ``case`` pattern of one; an if/elif chain on a task's
    name is such a function.  A function nested in another counts for both.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        compared = set()
        for inner in ast.walk(node):
            if isinstance(inner, ast.Compare):
                operands = [inner.left, *inner.comparators]
            elif isinstance(inner, ast.MatchValue):
                operands = [inner.value]
            else:
                continue
            for operand in operands:
                items = operand.elts if isinstance(operand, (ast.Tuple, ast.List, ast.Set)) else [operand]
                compared.update(e.value for e in items if isinstance(e, ast.Constant) and e.value in names)
        if len(compared) >= 2:
            found.append((node.lineno, getattr(node, "name", "<lambda>")))
    return sorted(found)


def test_task_branch_check_finds_each_chain():
    source = (
        "def run(task):\n"
        "    if task == 'psd':\n"
        "        return 1\n"
        "    elif task == 'decay':\n"
        "        return 2\n"
        "def rows(task):\n"
        "    return 1 if task in ('witness', 'analytic') else 2\n"
        "def line(task):\n"
        "    match task:\n"
        "        case 'psd':\n"
        "            return 1\n"
        "        case 'interpolant':\n"
        "            return 2\n"
        "def summary(tasks, errors):\n"
        "    if 'witness' not in tasks:\n"
        "        return 0\n"
        "    return 'witness' in errors or tasks == 'kernel'\n"
    )
    names = ("psd", "decay", "witness", "analytic", "interpolant")
    assert task_name_branches(source, names) == [(1, "run"), (6, "rows"), (8, "line")]


def test_cli_branches_on_no_task_name():
    """Each task's run, table and summary line are one record of cli's table of tasks."""
    source = (PACKAGE / TASK_MODULE).read_text()
    assert len(cli.ALL_TASKS) == 5
    assert task_name_branches(source, cli.ALL_TASKS) == []
