"""Every import in the package is used, except lines marked ``# noqa: F401``
(names kept only so that the benchmark's tracer can patch them there), and
each of those names is one the tracer patches in that module.  Every private
top-level function is read in its own module.  Every public top-level
function and class and every public method, outside ``fixtures.py`` (which
the tests and ``perfbench/`` share), is read somewhere in ``src/`` or
``perfbench/`` or named in the package's ``__all__``.  Every module-level
UPPER_CASE constant is read somewhere in ``src/`` or ``perfbench/``.  So a
helper, a test-only function or a constant left behind by a refactor fails
here.  Importing the package loads no scipy module; only
``fixtures.random_chart_pair`` imports ``scipy.spatial``, on first call."""
import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from .test_tracing_targets import _load_tracing

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "trimoves"
CONSTANT = re.compile(r"_?[A-Z][A-Z0-9_]*")


def marked(lines: list[str], node: ast.stmt) -> bool:
    return any("# noqa: F401" in lines[i] for i in range(node.lineno - 1, node.end_lineno))


def declared_all(tree: ast.Module) -> set[str]:
    """The names the module's ``__all__`` lists; empty without one."""
    out = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            out |= set(ast.literal_eval(node.value))
    return out


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each imported name that the module never reads and
    does not list in ``__all__``, skipping lines marked ``# noqa: F401``."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    read |= declared_all(tree)
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        kept = marked(lines, node)
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            if name not in read and not kept:
                out.append((node.lineno, name))
    return out


def unread_private_functions(source: str) -> list[str]:
    """The top-level ``_private`` functions that the module never reads."""
    tree = ast.parse(source)
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [
        node.name
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and node.name not in read
    ]


def public_definitions(source: str) -> list[str]:
    """The module's public top-level functions and classes, and its
    classes' public methods as ``Class.method``, in source order; a name
    with a leading underscore, dunders included, is not public."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            out.append(node.name)
        if isinstance(node, ast.ClassDef):
            out += [
                f"{node.name}.{m.name}"
                for m in node.body
                if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")
            ]
    return out


def unread_public_names(source: str, readers: list[str], exported: set[str]) -> list[str]:
    """The public definitions of ``source`` that no source in ``readers``
    reads (bare or as an attribute) and ``exported`` does not name."""
    read = set().union(*map(loaded_names, readers)) | exported
    return [name for name in public_definitions(source) if name.rpartition(".")[2] not in read]


def module_constants(source: str) -> list[str]:
    """The UPPER_CASE names, with or without a leading underscore, that the
    module assigns at top level."""
    return [
        t.id
        for node in ast.parse(source).body
        if isinstance(node, ast.Assign)
        for t in node.targets
        if isinstance(t, ast.Name) and CONSTANT.fullmatch(t.id)
    ]


def loaded_names(source: str) -> set[str]:
    """The names the source reads, bare (``X``) or as attributes (``m.X``)."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
    return out


def unread_constants(source: str, readers: list[str]) -> list[str]:
    """The module-level constants of ``source`` that no source in
    ``readers`` reads."""
    read = set().union(*map(loaded_names, readers))
    return [name for name in module_constants(source) if name not in read]


def marked_imports(source: str) -> list[str]:
    """The names bound by import lines marked ``# noqa: F401``."""
    lines = source.splitlines()
    return [
        alias.asname or alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.Import, ast.ImportFrom)) and marked(lines, node)
        for alias in node.names
    ]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_private_function_is_read(path):
    assert unread_private_functions(path.read_text()) == []


def test_private_function_detector():
    source = (
        "def _used(x):\n    return x\n"
        "def _left_over(a, b):\n    return a | b\n"
        "def __getattr__(name):\n    raise AttributeError(name)\n"
        "def public():\n    return _used(1)\n"
    )
    assert unread_private_functions(source) == ["_left_over"]


def src_and_bench_sources() -> list[str]:
    return [p.read_text() for d in ("src", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))]


@pytest.mark.parametrize(
    "path",
    [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "fixtures.py"],
    ids=lambda p: p.name,
)
def test_every_public_name_is_read(path):
    exported = declared_all(ast.parse((PACKAGE / "__init__.py").read_text()))
    assert unread_public_names(path.read_text(), src_and_bench_sources(), exported) == []


def test_public_name_detector():
    source = (
        "class Kept:\n"
        "    def used(self):\n        return 1\n"
        "    def left_over(self):\n        return 2\n"
        "    def __len__(self):\n        return 0\n"
        "    def _helper(self):\n        return 3\n"
        "class Unread:\n    pass\n"
        "def exported():\n    return Kept().used()\n"
        "def from_bench():\n    return 0\n"
        "def _private():\n    return 4\n"
    )
    bench = "from m import from_bench\nfrom_bench()\n"
    assert public_definitions(source) == [
        "Kept", "Kept.used", "Kept.left_over", "Unread", "exported", "from_bench"
    ]
    assert unread_public_names(source, [source], {"exported"}) == [
        "Kept.left_over", "Unread", "from_bench"
    ]
    assert unread_public_names(source, [source, bench], {"exported"}) == [
        "Kept.left_over", "Unread"
    ]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_constant_is_read(path):
    assert unread_constants(path.read_text(), src_and_bench_sources()) == []


def test_constant_detector():
    source = (
        "import m\n"
        "STEP = 2\n"
        "LEFT_OVER = 10  # read nowhere\n"
        "_GUARD = 8\n"
        "LOW = 0\n"
        "lower_case = 3\n"
        "def f(x):\n    STEP2 = 4\n    return x * STEP + STEP2 + m.LOW\n"
    )
    reader = "from m import _GUARD\nprint(_GUARD)\n"
    assert module_constants(source) == ["STEP", "LEFT_OVER", "_GUARD", "LOW"]
    assert unread_constants(source, [source]) == ["LEFT_OVER", "_GUARD"]
    assert unread_constants(source, [source, reader]) == ["LEFT_OVER"]


def test_detector():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import numpy as np\n"
        "from math import (\n    floor,\n    pi,\n)\n"
        "from json import dumps  # noqa: F401  kept for a patcher\n"
        "from re import sub\n"
        "__all__ = ['sub']\n"
        "x = np.zeros(floor(2.5))\n"
    )
    assert unused_imports(source) == [(2, "os"), (4, "pi")]
    assert marked_imports(source) == ["dumps"]


def test_every_marked_import_is_a_tracer_target():
    targets = {(owner, attr) for owner, attr, _ in _load_tracing().TARGETS}
    kept = [
        (f"trimoves.{path.stem}", name)
        for path in sorted(PACKAGE.glob("*.py"))
        for name in marked_imports(path.read_text())
    ]
    assert kept
    assert [pair for pair in kept if pair not in targets] == []


SCIPY_ON_DEMAND = """
import sys
import numpy as np
import trimoves, trimoves.cli, trimoves.fixtures
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
k1, k2 = trimoves.fixtures.random_chart_pair(np.random.default_rng(14))
print(type(k1).__name__, type(k2).__name__, "scipy.spatial" in sys.modules)
"""


def test_scipy_is_imported_only_by_random_chart_pair():
    # a fresh interpreter, since this test session has loaded scipy already
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run(
        [sys.executable, "-c", SCIPY_ON_DEMAND],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert out.stdout.splitlines() == ["[]", "GeomComplex GeomComplex True"]
