"""Count the lines of the ``edgepa`` package in one or more checkouts.

    python3 scripts/src_lines.py ROOT [ROOT ...]

For each checkout ``ROOT``, prints every module of ``ROOT/src/edgepa``
with its lines, as ``wc -l`` counts them, and its code lines, then the
totals.  Code lines leave out blank lines, comment-only lines, and the
docstrings of modules, classes and functions: a line counts if it holds
any other token.  Docstrings are found with ``ast`` and the remaining
tokens with ``tokenize``.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(text: str) -> int:
    """Number of lines of ``text`` that hold a token other than a comment
    or a docstring."""
    docs = {
        (s.lineno, s.end_lineno)
        for node in ast.walk(ast.parse(text))
        if isinstance(node, _SCOPES) and node.body
        for s in node.body[:1]
        if isinstance(s, ast.Expr) and isinstance(s.value, ast.Constant) and isinstance(s.value.value, str)
    }
    rows = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        # a docstring is the string token that spans exactly its rows
        if tok.type in _SKIP or (tok.type == tokenize.STRING and (tok.start[0], tok.end[0]) in docs):
            continue
        rows.update(range(tok.start[0], tok.end[0] + 1))
    return len(rows)


def count(root: Path) -> list[tuple[str, int, int]]:
    """``(module, lines, code lines)`` for each module of ``root/src/edgepa``."""
    out = []
    for path in sorted((root / "src" / "edgepa").glob("*.py")):
        text = path.read_text(encoding="utf-8")
        out.append((path.name, text.count("\n"), code_lines(text)))
    return out


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    for root in argv:
        rows = count(Path(root))
        if not rows:
            print(f"{root}: no modules under src/edgepa", file=sys.stderr)
            return 2
        print(f"{root}\n  {'module':<16} {'lines':>6} {'code':>6}")
        for name, lines, code in rows + [("total", sum(r[1] for r in rows), sum(r[2] for r in rows))]:
            print(f"  {name:<16} {lines:>6} {code:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
