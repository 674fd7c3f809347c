"""Statements in the function bodies of ``src/shiftlab/`` that a pytest run never executes.

    python tools/linetrace.py                                  # the tier-1 suite
    python tools/linetrace.py tests/test_rationals.py -k abs_pow
    python tools/linetrace.py --out trace.json tests/test_shift_space.py

The ``coverage`` package is not needed.  The script runs ``python -m pytest
-q -p no:cacheprovider`` in a subprocess from this checkout, with the pytest
arguments given (by default ``--continue-on-collection-errors``, the tier-1
run), and loads a plugin into it that calls ``sys.settrace`` and
``threading.settrace`` at ``pytest_configure``, again before each test (a
test may reset the trace, as hypothesis does to explain a failure), and
records every line that runs in a file under ``src/shiftlab/``.

A statement inside a function body, other than a docstring, has run when any
line of its span ran.  Each other one is listed as ``path:line`` with its
first source line, in file and line order, on stdout and in
``BENCH_linetrace.json`` (``--out``), with the test run's exit code.
Code that runs only in a subprocess, such as the ``python -m shiftlab``
runs of the CLI tests, is not traced: a listed statement may still be
reached there.  Tracing slows the run about twice over (the whole tier-1
suite of 672 tests took 175 s on a 2-core VM), so its wall-clock bounds may
fail; the listing does not depend on them.

Standard library only.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "shiftlab"

PLUGIN = '''\
import json
import os
import sys
import threading

_SRC = os.environ["LINETRACE_SRC"]
_runs = {}  # file name -> the set of its lines run, None for a file outside _SRC


def _lines(frame, event, arg):
    if event == "line":
        _runs[frame.f_code.co_filename].add(frame.f_lineno)
    return _lines


def _calls(frame, event, arg):
    name = frame.f_code.co_filename
    if name not in _runs:
        _runs[name] = set() if os.path.realpath(name).startswith(_SRC) else None
    return None if _runs[name] is None else _lines


def _trace():
    threading.settrace(_calls)
    sys.settrace(_calls)


def pytest_configure(config):
    _trace()


def pytest_runtest_setup(item):
    _trace()


def pytest_unconfigure(config):
    sys.settrace(None)
    threading.settrace(None)
    with open(os.environ["LINETRACE_OUT"], "w") as out:
        json.dump({os.path.realpath(n): sorted(r) for n, r in _runs.items() if r is not None}, out)
'''


def statements(path: Path) -> list[tuple[int, int]]:
    """(first, last) line of each statement inside a function body in the module at
    path, nested blocks and functions too, docstrings left out; a decorated
    function's span starts at its first decorator."""
    tree = ast.parse(path.read_text(), str(path))
    scopes = [n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    docstrings = {id(n.body[0]) for n in scopes if ast.get_docstring(n, clean=False) is not None}
    spans = set()
    for node in (n for n in scopes if not isinstance(n, ast.ClassDef)):
        for stmt in (s for top in node.body for s in ast.walk(top) if isinstance(s, ast.stmt)):
            if id(stmt) not in docstrings:
                first = min([stmt.lineno] + [d.lineno for d in getattr(stmt, "decorator_list", [])])
                spans.add((first, stmt.end_lineno or stmt.lineno))
    return sorted(spans)


def unrun(runs: dict[str, list[int]]) -> list[dict]:
    """Each statement of ``statements`` under SRC none of whose lines is in runs."""
    out = []
    for path in sorted(SRC.rglob("*.py")):
        ran, text = set(runs.get(str(path.resolve()), ())), path.read_text().splitlines()
        for first, last in statements(path):
            if ran.isdisjoint(range(first, last + 1)):
                out.append({"file": str(path.relative_to(ROOT)), "line": first, "text": text[first - 1].strip()})
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0], allow_abbrev=False)
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_linetrace.json", help="where the listing goes")
    args, pytest_args = parser.parse_known_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "linetrace_plugin.py").write_text(PLUGIN)
        runs_file = Path(tmp, "runs.json")
        path = [tmp, str(ROOT / "src"), os.environ.get("PYTHONPATH")]  # the plugin, this checkout's shiftlab
        env = {**os.environ, "LINETRACE_SRC": os.path.realpath(SRC) + os.sep, "LINETRACE_OUT": str(runs_file),
               "PYTHONPATH": os.pathsep.join(filter(None, path))}
        command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-p", "linetrace_plugin",
                   *(pytest_args or ["--continue-on-collection-errors"])]
        code = subprocess.run(command, cwd=ROOT, env=env, stdout=2).returncode  # to fd 2: stdout is the listing
        if not runs_file.exists():
            print(f"linetrace: pytest exited {code} and left no trace", file=sys.stderr)
            return 1
        runs = json.loads(runs_file.read_text())
    missed = unrun(runs)
    args.out.write_text(json.dumps({"pytest_exit_code": code, "unrun": missed}, indent=2) + "\n")
    for item in missed:
        print(f"{item['file']}:{item['line']}: {item['text']}")
    print(f"{len(missed)} statements in function bodies never ran in-process (subprocesses are not traced); "
          f"pytest exited {code}; written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
