"""Count the code lines of the fpwsim package.

A line counts when it holds a token of code: blank lines, comment-only
lines and the lines of docstrings (the string that opens a module, class or
function body) do not. Prints one line per module and the total.

    python3 tools/code_lines.py [PACKAGE_DIR]

PACKAGE_DIR defaults to src/fpwsim beside this script's directory.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers spanned by docstrings."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """Lines of ``path`` that hold code outside docstrings."""
    text = path.read_text(encoding="utf-8")
    docs = docstring_lines(ast.parse(text))
    lines = set()
    with path.open("rb") as handle:
        for token in tokenize.tokenize(handle.readline):
            if token.type not in SKIPPED:
                lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docs)


def main(argv: list[str]) -> int:
    package = (Path(argv[0]) if argv
               else Path(__file__).resolve().parent.parent / "src" / "fpwsim")
    total = 0
    for path in sorted(package.glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
