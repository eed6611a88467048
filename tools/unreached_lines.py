"""List the statements of the fpwsim package that the tier-1 tests never run.

Runs the tier-1 suite in this process under ``sys.settrace``, with a fixed
``--hypothesis-seed`` so that the list does not depend on the draws,
records each line executed in ``src/fpwsim/*.py`` and then prints, one per
line as ``module.py:LINE``, every statement that never ran. Def, class and
import statements, ``global`` and ``nonlocal`` declarations, docstrings and
other bare constants are left out: they run at import or compile to
nothing. So is the body of an ``if __name__ == "__main__":`` guard, which
only a subprocess runs, and a subprocess is not traced. The pytest report
goes to stderr, so stdout holds only the list.

    python3 tools/unreached_lines.py [PYTEST_ARG ...]

Extra arguments follow the tier-1 ones on the pytest command line. The
exit status is 1 if any statement is listed, else pytest's. Tracing makes
the suite about 2.5 times slower.
"""

from __future__ import annotations

import ast
import contextlib
import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fpwsim"
TIER1 = ["-q", "--continue-on-collection-errors", "--hypothesis-seed=0"]
NO_CODE = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import,
           ast.ImportFrom, ast.Global, ast.Nonlocal)


def statements(tree: ast.Module):
    """(line, own lines) of each statement that compiles to code, outside
    a ``__main__`` guard; a compound statement owns the lines of its header
    only."""
    body = [node for node in tree.body if not (
        isinstance(node, ast.If)
        and ast.unparse(node.test) == "__name__ == '__main__'"
    )]
    for node in ast.walk(ast.Module(body=body, type_ignores=[])):
        if not isinstance(node, ast.stmt) or isinstance(node, NO_CODE):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue
        inner = [n.lineno for n in ast.walk(node)
                 if n is not node and isinstance(n, ast.stmt)]
        last = max(node.lineno, min(inner) - 1) if inner else node.end_lineno
        yield node.lineno, range(node.lineno, last + 1)


def run_traced(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest with ``args`` under the tracer: (exit status, lines run
    per package file name)."""
    hits: dict[str, set[int]] = {}
    inside: dict[str, bool] = {}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in inside:
            inside[name] = Path(name).resolve().parent == PACKAGE
            if inside[name]:
                hits[name] = set()
        return local if inside[name] else None

    os.chdir(ROOT)
    sys.path.insert(0, str(PACKAGE.parent))
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        with contextlib.redirect_stdout(sys.stderr):
            status = int(pytest.main(args))
    finally:
        sys.settrace(None)
        threading.settrace(None)
    module = sys.modules.get("fpwsim")
    if module is None or Path(module.__file__).resolve().parent != PACKAGE:
        raise SystemExit(f"error: the suite did not import fpwsim from {PACKAGE}")
    return status, {Path(name).name: lines for name, lines in hits.items()}


def main(argv: list[str]) -> int:
    status, hits = run_traced(TIER1 + argv)
    listed = False
    for path in sorted(PACKAGE.glob("*.py")):
        ran = hits.get(path.name, set())
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for line, own in sorted(statements(tree)):
            if ran.isdisjoint(own):
                print(f"{path.name}:{line}")
                listed = True
    return 1 if listed else status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
