"""The lines of ``src/radrelax`` that no Tier-1 test reaches.

Run from the repository root:

    PYTHONPATH=src python tests/linecov.py [pytest arguments]

It runs the suite in this process (``tests/ -q -p no:cacheprovider`` when
no arguments are given) under a ``sys.settrace`` line tracer, then prints
each executable line of the package that no test executed, as
``path:line: source``, and their count. A line is executable when the
compiled module maps an instruction to it; the tracer sees only frames of
the package's own files, so the rest of the run pays one call-event test
per frame. No package beyond the standard library and pytest is needed,
and pytest does not collect this file.

Read the report with three limits in mind:
- Tracing slows the suite two- to threefold (45-60 s on a shared 2-core
  Xeon), so a test held to a wall-time budget may fail.
- Tests that bound memory under ``tracemalloc`` may fail as well: the
  tracer's set of reached lines grows while they measure.
- Code that runs only in a child interpreter (the subprocess tests) is
  not traced, so a line reached only there is reported.
A failing test leaves the report valid for the tests that ran; pytest's
own summary, printed before the report, names it.
"""

import os
import sys
import threading
import types

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "radrelax")


def executable_lines(path):
    """The line numbers that the compiled module at path maps an
    instruction to, in its body and in every nested code object; a code
    object's entry on line 0 (its start) is no line of the file."""
    with open(path) as f:
        code = compile(f.read(), path, "exec")
    lines, stack = set(), [code]
    while stack:
        co = stack.pop()
        lines.update(line for *_, line in co.co_lines() if line)
        stack.extend(c for c in co.co_consts if isinstance(c, types.CodeType))
    return lines


def traced_run(args):
    """Run pytest with args under the line tracer; returns the set of
    (path, line) the package's frames executed."""
    reached = set()
    add = reached.add

    def local(frame, event, arg):
        if event == "line":
            add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def call(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(PACKAGE) else None

    threading.settrace(call)
    sys.settrace(call)
    try:
        pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return reached


def main(argv):
    reached = traced_run(argv or [os.path.join(ROOT, "tests"), "-q",
                                  "-p", "no:cacheprovider"])
    missed = 0
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        with open(path) as f:
            source = f.read().splitlines()
        for line in sorted(executable_lines(path)):
            if (path, line) not in reached:
                missed += 1
                print(f"{os.path.relpath(path, ROOT)}:{line}: "
                      f"{source[line - 1].strip()}")
    print(f"{missed} executable lines of src/radrelax not reached")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
