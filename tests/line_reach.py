"""List the function-body lines under ``src/sopflow`` that the test suite never runs.

Usage, from the repository root::

    python3 tests/line_reach.py [pytest arguments...]

Runs pytest in this process (default arguments: ``tests -q -p no:cacheprovider``)
under ``sys.settrace``, tracing only code in ``src/sopflow``, the worker
threads an episode starts included. Then it prints, file by file, each
statement inside a function body that no test reached, with its source
text. ``golden.py``, the fixture module, is left out. Module and class
bodies are not counted: they run on import.

A statement counts as reached when any line of its own runs: every line of
a simple statement, or the header of a compound one (``if``, ``for``,
``while``, ``with``). ``try:`` and a function's docstring are never
counted, since no line event reports them. Code run by a subprocess (a test
that starts the ``sopflow`` command) is not traced.

Tracing makes the suite about three times slower, so a test with a
wall-clock budget may fail; its lines still count. The exit status is
pytest's.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "sopflow"
SKIPPED = {"golden.py"}
_HEADED = (ast.If, ast.For, ast.While, ast.With)


def _own_lines(stmt: ast.stmt) -> range:
    """The lines whose line events show ``stmt`` ran: a compound statement's
    header, or the whole of a simple one."""
    if isinstance(stmt, _HEADED):
        return range(stmt.lineno, max(stmt.lineno + 1, stmt.body[0].lineno))
    return range(stmt.lineno, stmt.end_lineno + 1)


def _is_docstring(stmt: ast.stmt, body: list[ast.stmt]) -> bool:
    return (stmt is body[0] and isinstance(stmt, ast.Expr)
            and isinstance(stmt.value, ast.Constant) and isinstance(stmt.value.value, str))


def body_statements(tree: ast.AST):
    """Every statement inside a function body under ``tree``, nested
    functions' bodies included, but not their ``def`` lines or docstrings."""
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            yield from _statements(node.body)


def _statements(body: list[ast.stmt]):
    for stmt in body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            continue  # a nested def's body is walked as its own function
        if not (_is_docstring(stmt, body) or isinstance(stmt, ast.Try)):
            yield stmt
        for field in ("body", "orelse", "finalbody"):
            yield from _statements(getattr(stmt, field, []))
        for handler in getattr(stmt, "handlers", []):
            yield from _statements(handler.body)


def unreached(executed: dict[str, set[int]]) -> dict[Path, list[int]]:
    """File -> first lines of the function-body statements none of whose own
    lines is in ``executed`` (file name -> line numbers run)."""
    out = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name in SKIPPED:
            continue
        ran = executed.get(str(path), set())
        missed = sorted({stmt.lineno for stmt in body_statements(ast.parse(path.read_text()))
                         if ran.isdisjoint(_own_lines(stmt))})
        if missed:
            out[path] = missed
    return out


def run_traced(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest with ``pytest_args`` under the tracer; returns its exit
    code and the lines run in each file under the package."""
    import pytest

    prefix = str(PACKAGE) + "/"
    executed: dict[str, set[int]] = {}
    tracers: dict[str, object] = {}  # file name -> its local trace function

    def trace(frame, event, arg):
        filename = frame.f_code.co_filename
        local = tracers.get(filename)
        if local is None and filename.startswith(prefix):
            local = tracers[filename] = recorder(executed.setdefault(filename, set()))
        return local

    def recorder(lines: set[int]):
        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local
        return local

    sys.path.insert(0, str(PACKAGE.parent))
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), executed


def main(argv: list[str]) -> int:
    code, executed = run_traced(argv or [str(ROOT / "tests"), "-q", "-p", "no:cacheprovider"])
    if not executed:
        print(f"no line under {PACKAGE} ran: is another copy of sopflow imported?")
        return 2
    found = unreached(executed)
    for path, lines in found.items():
        source = path.read_text().splitlines()
        print(path.relative_to(ROOT).as_posix())
        for line in lines:
            print(f"  {line:4d}: {source[line - 1].strip()}")
    print(f"{sum(map(len, found.values()))} unreached function-body statements "
          f"in {len(found)} files; pytest exit code {code}")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
