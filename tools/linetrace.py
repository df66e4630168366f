"""pytest plugin: the lines of src/rcg that a test run never executes.

    PYTHONPATH=src:tools python -m pytest -q -p linetrace

`sys.settrace` records every line of src/rcg that runs in the pytest
process.  Children are not traced, so a test runs `rcg.cli` as `__main__`
in process to reach `cli.entry`.  At the end, every line that holds code,
as the compiler's line table gives it, and did not run is written to
linetrace.txt in the working directory as `module:line: source`.  The
body of an `if TYPE_CHECKING:` block is left out: it is read by type
checkers and never runs.  Where any line is left, the run exits non-zero,
as if a test had failed.  Tracing makes the run about 1.7 times slower.
"""
import ast
import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent / "src" / "rcg"
PREFIX = f"{ROOT}{os.sep}"
EXECUTED: dict[str, set[int]] = {}


def _line(frame, event, arg):
    if event == "line":
        EXECUTED[frame.f_code.co_filename].add(frame.f_lineno)
    return _line


def _call(frame, event, arg):
    name = frame.f_code.co_filename
    if not name.startswith(PREFIX):
        return None
    EXECUTED.setdefault(name, set()).add(frame.f_lineno)
    return _line


# set at import, so that the modules imported while tests are collected are traced
sys.settrace(_call)
threading.settrace(_call)


def _code_lines(code) -> set[int]:
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _type_checking_lines(tree) -> set[int]:
    return {
        line
        for node in ast.walk(tree)
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING"
        for stmt in node.body
        for line in range(stmt.lineno, stmt.end_lineno + 1)
    }


def pytest_sessionfinish(session, exitstatus):
    sys.settrace(None)
    threading.settrace(None)
    report = []
    for path in sorted(ROOT.glob("*.py")):
        source = path.read_text()
        code = compile(source, str(path), "exec")
        missing = _code_lines(code) - EXECUTED.get(str(path), set())
        missing -= _type_checking_lines(ast.parse(source))
        text = source.splitlines()
        report += [f"{path.name}:{line}: {text[line - 1].strip()}" for line in sorted(missing)]
    Path("linetrace.txt").write_text("".join(f"{r}\n" for r in report))
    if report:
        print(f"\nlinetrace: {len(report)} lines of src/rcg never ran, see linetrace.txt")
        session.exitstatus = session.exitstatus or pytest.ExitCode.TESTS_FAILED
