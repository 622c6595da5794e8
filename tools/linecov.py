"""List the lines of src/giplab that a run never executes.

    python3 tools/linecov.py [PYTEST_ARGS ...]
    python3 tools/linecov.py --script PATH [ARGS ...]

Run it from the repository root.  With no arguments it runs the tier-1
suite in this process (``pytest`` with the repo's own settings); any
arguments go to pytest as given, e.g. ``tests/test_instance.py -q``.
``--script`` runs one Python file as ``__main__`` with ARGS as its
``sys.argv[1:]`` instead.  Afterwards every line of a module under
``src/giplab`` that holds bytecode and never ran is printed as
``path:line: source``, then one count per module.  The exit status is the
run's.

Only the standard library is used: ``sys.settrace`` and
``threading.settrace``, which trace line by line only the frames of
``src/giplab`` files.  The suite still runs several times slower than
untraced.  Code run in worker processes (a sweep with ``parallelism`` > 1)
is not seen and reads as never run.  The listing is a lower bound on dead
code, not a proof: a line that never ran here may run on other data.
"""

from __future__ import annotations

import argparse
import linecache
import os
import runpy
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "giplab")


def code_lines(code) -> set[int]:
    """The lines that hold bytecode in `code` and the code nested in it."""
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if isinstance(const, type(code)):
            lines |= code_lines(const)
    return lines


def traced(run):
    """Call run() under the tracer; returns its result and the lines that
    ran, as {absolute path: set of line numbers}."""
    ran: dict[str, set[int]] = {}
    wanted: dict[str, bool] = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        filename = frame.f_code.co_filename
        keep = wanted.get(filename)
        if keep is None:
            keep = wanted[filename] = os.path.realpath(filename).startswith(PACKAGE + os.sep)
        if not keep:
            return None
        ran.setdefault(filename, set()).add(frame.f_lineno)
        return local

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        result = run()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    by_path: dict[str, set[int]] = {}
    for filename, lines in ran.items():
        by_path.setdefault(os.path.realpath(filename), set()).update(lines)
    return result, by_path


def report(ran: dict[str, set[int]]) -> None:
    counts = []
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.realpath(os.path.join(PACKAGE, name))
        with open(path, encoding="utf-8") as fh:
            lines = code_lines(compile(fh.read(), path, "exec"))
        missed = sorted(lines - ran.get(path, set()))
        rel = os.path.relpath(path, ROOT)
        for line in missed:
            print(f"{rel}:{line}: {linecache.getline(path, line).strip()}")
        counts.append((rel, len(missed), len(lines)))
    print()
    for rel, missed, total in counts:
        print(f"{rel}: {missed} of {total} lines never ran")


def run_script(path: str, argv: list[str]):
    """Run the file at `path` as __main__; returns its exit status."""
    sys.argv = [path, *argv]
    try:
        runpy.run_path(path, run_name="__main__")
    except SystemExit as exc:
        return exc.code
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter,
        allow_abbrev=False)
    parser.add_argument("--script", help="run this Python file instead of pytest")
    args, rest = parser.parse_known_args(argv)
    sys.path.insert(0, SRC)
    if args.script:
        status, ran = traced(lambda: run_script(args.script, rest))
    else:
        import pytest

        status, ran = traced(lambda: pytest.main(rest))
    report(ran)
    if status is None or isinstance(status, int):
        return int(status or 0)
    print(status, file=sys.stderr)  # sys.exit("message")
    return 1


if __name__ == "__main__":
    sys.exit(main())
