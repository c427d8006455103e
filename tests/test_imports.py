"""Every import in the package is used, except lines marked ``# noqa: F401``
(names kept only so that the benchmark's tracer can patch them there)."""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "trimoves"


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each imported name that the module never reads and
    does not list in ``__all__``, skipping lines marked ``# noqa: F401``."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= set(ast.literal_eval(node.value))
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        marked = any(
            "# noqa: F401" in lines[i] for i in range(node.lineno - 1, node.end_lineno)
        )
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            if name not in read and not marked:
                out.append((node.lineno, name))
    return out


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


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
