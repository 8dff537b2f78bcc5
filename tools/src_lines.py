"""Count source lines of the ``extensor`` package, per module and in total.

For every ``.py`` file under ``src/extensor/`` it prints two numbers:
physical lines, and code lines, the lines left once docstrings, comments
and blank lines are taken out.  A docstring is the string that opens a
module, class or function body.  A line counts as code when a token
other than a comment, a docstring or a line break lies on it; a
multi-line string that is not a docstring counts on every line it spans.

Run from the root of a checkout, standard library only:

    python3 tools/src_lines.py [PACKAGE_DIR]
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(text: str) -> tuple[int, int]:
    """``(physical lines, code lines)`` of one module's source."""
    docs = docstring_lines(ast.parse(text))
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in SKIPPED:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code - docs)


def main(argv: list[str]) -> int:
    root = Path(argv[1] if len(argv) > 1 else "src/extensor")
    files = sorted(root.glob("*.py"))
    if not files:
        print(f"no .py files under {root}", file=sys.stderr)
        return 2
    total_phys = total_code = 0
    print(f"{'module':<24}{'physical':>10}{'code':>8}")
    for path in files:
        phys, code = count(path.read_text(encoding="utf-8"))
        total_phys += phys
        total_code += code
        print(f"{path.name:<24}{phys:>10}{code:>8}")
    print(f"{'total':<24}{total_phys:>10}{total_code:>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
