"""Report the branches of the library that the test suite leaves untaken.

Runs the test suite in-process under a ``sys.settrace`` collector that
traces only the frames of ``src/chanapprox``, recording for each frame
the line each executed line was reached from. Then prints:

* each ``if`` whose body never ran, or whose else path never ran: its
  ``else``/``elif`` block, or with none the step from its test to any
  line after the body;
* each ``except`` handler that was never entered.

A test written over several lines counts as run if any of its lines ran.
Exceptions reset the record of where a frame was, so a test that raises
does not count as taking its else path. Subprocesses are not traced.
Arguments go on to pytest; the report is printed after the suite's own
output, and the exit status is the suite's. Run from the repository root:

    python3 tools/branches.py
    python3 tools/branches.py -x tests/test_approx.py
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "chanapprox"
_EXIT = -1  # the line a frame's return is recorded to


def _collector(arcs: set):
    """A global trace function that records (file, from, to) line steps of
    the package's frames into ``arcs``."""
    prefix = str(PACKAGE) + "/"

    def trace(frame, event, arg):
        path = frame.f_code.co_filename
        if not path.startswith(prefix):
            return None
        last = None
        # a comprehension or lambda returns from a line of the code around it
        returns = not frame.f_code.co_name.startswith("<") or frame.f_code.co_name == "<module>"

        def local(frame, event, arg):
            nonlocal last
            if event == "line":
                line = frame.f_lineno
                arcs.add((path, last, line))
                last = line
            elif event == "exception":
                last = None
            elif event == "return" and returns and last is not None:
                arcs.add((path, last, _EXIT))
            return local

        return local(frame, event, arg)

    return trace


def _span(stmts) -> set:
    """The lines of a block of statements."""
    return set(range(stmts[0].lineno, stmts[-1].end_lineno + 1))


def report(path: Path, arcs: set) -> list[str]:
    """One line per untaken branch of the file at ``path``."""
    key = str(path)
    steps = [(a, b) for p, a, b in arcs if p == key]
    ran = {b for _, b in steps}
    name = path.relative_to(ROOT)
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.If):
            test = set(range(node.test.lineno, node.test.end_lineno + 1))
            body = _span(node.body)
            if node.orelse:
                other = bool(ran & _span(node.orelse))
            else:
                other = any(a in test and b not in test | body for a, b in steps)
            if not ran & body:
                found.append((node.lineno, f"{name}:{node.lineno}: if: body never ran"))
            if not other:
                found.append((node.lineno, f"{name}:{node.lineno}: if: else path never ran"))
        elif isinstance(node, ast.ExceptHandler) and not ran & _span(node.body):
            found.append((node.lineno, f"{name}:{node.lineno}: except: never entered"))
    return [text for _, text in sorted(found)]


def main(args: list[str]) -> int:
    # the suite's subprocesses import the package from the same source
    src = str(ROOT / "src")
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    import pytest

    arcs: set = set()
    trace = _collector(arcs)
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(["-q", *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    lines = [text for path in sorted(PACKAGE.glob("*.py")) for text in report(path, arcs)]
    print(f"\nuntaken branches: {len(lines)}")
    for text in lines:
        print(text)
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
