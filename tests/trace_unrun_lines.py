"""List the statements of ``src/trimoves`` that the test suite never runs.

Run by hand from the repository root; under the tracer the suite takes a
few times as long as without it, too slow for every test run:

    PYTHONPATH=src python tests/trace_unrun_lines.py [pytest arguments]

It runs pytest in this process with a ``sys.settrace`` line tracer on the
frames of ``src/trimoves`` only, then prints, per module, each statement
none of whose lines ran, ``raise`` statements marked with ``!``, and the
number of unrun ``raise`` statements.  A ``raise`` that never runs is a
check that no test has seen fail.  Code run in a subprocess is not traced.
The file is not named ``test_*.py``, so pytest does not collect it.
"""
import ast
import sys
import threading
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "trimoves"


def statement_spans(tree: ast.Module):
    """(statement, first line, last line) for each statement; a compound
    statement spans its header only, up to the first line of its body."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        end = node.end_lineno
        body = getattr(node, "body", None)
        if isinstance(body, list) and body:
            end = max(node.lineno, body[0].lineno - 1)
        yield node, node.lineno, end


def is_docstring(node: ast.stmt) -> bool:
    return isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)


def main(argv: list[str]) -> int:
    files = {str(p): p for p in PACKAGE.glob("*.py")}
    ran: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        if frame.f_code.co_filename in files:
            ran.add((frame.f_code.co_filename, frame.f_lineno))
            return local
        return None

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    unrun_raises = 0
    for name, path in sorted(files.items()):
        source = path.read_text().splitlines()
        lines = {line for filename, line in ran if filename == name}
        unrun = []
        for node, first, last in statement_spans(ast.parse("\n".join(source))):
            if is_docstring(node) or lines & set(range(first, last + 1)):
                continue
            mark = "!" if isinstance(node, ast.Raise) else " "
            unrun_raises += mark == "!"
            unrun.append(f"  {mark} {first}: {source[first - 1].strip()}")
        if unrun:
            print(f"{path.relative_to(PACKAGE.parent.parent)}: {len(unrun)} unrun")
            print("\n".join(unrun))
    print(f"unrun raise statements: {unrun_raises}; pytest exit code {code}")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
