"""Line reach of the tier-1 tests over ``src/chabauty``.

Runs the tier-1 suite in this process under a line tracer
(``sys.settrace`` and ``threading.settrace``, so the CLI's worker
threads count too) and compares the lines it reached with the
executable lines of every ``src/chabauty/*.py``, read from the
``co_lines`` of each file's code objects.  A statement whose first line
carries ``# pragma: no cover`` followed by a reason is excused, with
everything inside it; a marker without a reason, or on a statement that
was reached after all, is an error.

Usage, from the repository root: ``PYTHONPATH=src python tests/reach.py``.
Exits 1 and lists the offending lines when the suite fails, a line is
unreached or a marker is wrong; the file name keeps pytest from
collecting it.  The last line also reports the number of non-blank
lines under ``src/chabauty``, the size of the package, for the record
only.
"""
from __future__ import annotations

import ast
import os
import re
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "chabauty"
MARKER = re.compile(r"#\s*pragma:\s*no cover\b(.*)$")


def executable_lines(code) -> set:
    """Line numbers of a code object and of every code object in it."""
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= executable_lines(const)
    return lines


def statements(tree) -> list:
    """(first line, last line) of every statement."""
    return [(node.lineno, node.end_lineno) for node in ast.walk(tree)
            if isinstance(node, ast.stmt)]


def trace(reached: dict, files: set):
    def local(frame, event, arg):
        if event == "line":
            reached[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        return local if frame.f_code.co_filename in files else None

    return call


def check(path: Path, reached: set) -> list:
    """Problems found in one source file, one line of text each."""
    source = path.read_text(encoding="utf-8")
    text = source.splitlines()
    unreached = executable_lines(compile(source, str(path), "exec")) - reached
    problems = []
    excused = set()
    for first, last in statements(ast.parse(source)):
        marker = MARKER.search(text[first - 1])
        if marker is None:
            continue
        span = set(range(first, last + 1))
        if not re.search(r"\w", marker.group(1)):
            problems.append(f"{path.name}:{first}: marker gives no reason")
        elif not span & unreached:
            problems.append(f"{path.name}:{first}: marked but reached")
        excused |= span
    for line in sorted(unreached - excused):
        problems.append(f"{path.name}:{line}: {text[line - 1].strip()}")
    return problems


def main() -> int:
    files = {str(p) for p in SRC.glob("*.py")}
    reached = {f: set() for f in files}
    tracer = trace(reached, files)
    sys.path.insert(0, str(SRC.parent))
    os.chdir(ROOT)
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "--continue-on-collection-errors",
                              "-p", "no:cacheprovider"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    if status != 0:
        print(f"reach: the tier-1 suite failed (pytest exit {int(status)})")
        return 1
    problems = []
    for name in sorted(files):
        problems += check(Path(name), reached[name])
    for problem in problems:
        print(f"reach: {problem}")
    lines = sum(1 for name in files
                for line in Path(name).read_text(encoding="utf-8").splitlines()
                if line.strip())
    print(f"reach: {len(problems)} problem(s) in {len(files)} files, "
          f"{lines} non-blank source lines")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
