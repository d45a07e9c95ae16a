#!/usr/bin/env python3
"""Print the executable lines of ``src/relock/*.py`` that a test run never ran.

Runs pytest in process under a ``sys.settrace``/``threading.settrace`` line
tracer, then prints each unreached line as ``path:line: source``.  With no
arguments it runs the whole suite; any arguments go to pytest as they are.
Standard library only (plus pytest); expect the traced suite to run a few
times slower than usual::

    python tools/unrun_lines.py
    python tools/unrun_lines.py tests/test_sim.py -x
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "relock"


def executable_lines(path: Path) -> set[int]:
    """Every line that starts a bytecode instruction of ``path``'s code."""
    lines: set[int] = set()
    todo = [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _start, _end, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if isinstance(c, type(code)))
    return lines


def unrun_lines(fn, *args):
    """Call ``fn(*args)`` under a line tracer.

    Returns its result and, per file name under ``src/relock``, the sorted
    executable lines that never ran.  Code that ran before the call, such
    as the module bodies of modules already imported, counts as not run.
    """
    ran: set[tuple[str, int]] = set()
    src = str(SRC)

    def on_line(frame, event, _arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return on_line

    def on_call(frame, _event, _arg):
        if not frame.f_code.co_filename.startswith(src):
            return None
        ran.add((frame.f_code.co_filename, frame.f_lineno))
        return on_line

    saved = sys.gettrace()
    sys.settrace(on_call)
    threading.settrace(on_call)
    try:
        result = fn(*args)
    finally:
        sys.settrace(saved)
        threading.settrace(saved)
    by_path: dict[Path, set[int]] = {}
    for filename, line in ran:
        by_path.setdefault(Path(filename).resolve(), set()).add(line)
    unrun = {p.name: sorted(executable_lines(p) - by_path.get(p, set())) for p in sorted(SRC.glob("*.py"))}
    return result, unrun


def main(argv: list[str]) -> int:
    import pytest

    sys.path.insert(0, str(ROOT / "src"))
    rc, unrun = unrun_lines(pytest.main, argv or ["-q", str(ROOT / "tests")])
    for name, lines in unrun.items():
        text = (SRC / name).read_text().splitlines()
        for line in lines:
            print(f"src/relock/{name}:{line}: {text[line - 1].strip()}")
    return int(rc)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
