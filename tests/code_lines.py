"""Count the code lines of Python modules: lines that hold a token of code, with no
docstring, comment or blank line counted. A statement over several lines counts
each line it spans; a docstring is the string that opens a module, class or
function body, whatever its length.

    python tests/code_lines.py src/phonaug

prints each module's count, then the total. `code_lines(source)` counts one text.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of the module text `source`."""
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(root: str) -> None:
    total = 0
    for path in sorted(Path(root).glob("*.py")):
        n = code_lines(path.read_text(encoding="utf-8"))
        total += n
        print(f"{path.name:20} {n:5}")
    print(f"{'total':20} {total:5}")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "src/phonaug")
