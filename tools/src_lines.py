"""Count the lines of the package source, so that a change shows what it added.

Run from the repository root:

    python3 tools/src_lines.py

One row per file under ``src/lanswitch`` and a total row, each with four
counts: all lines, code lines, docstring lines and comment-only lines. A
docstring is the string literal that opens a module, class or function
(found with ``ast``); its lines count as docstring, not code. A
comment-only line holds a comment and nothing else (found with
``tokenize``). A code line is any other line with a token on it. Blank
lines make up the rest of the total.
"""

from __future__ import annotations

import ast
import io
import os
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "lanswitch")
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}


def count(source: str) -> tuple[int, int, int, int]:
    """(total, code, docstring, comment-only) lines of one Python source."""
    docstring = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None:
            first = node.body[0]
            docstring.update(range(first.lineno, first.end_lineno + 1))
    code, comment = set(), set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            comment.add(tok.start[0])
        elif tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    code -= docstring
    return len(source.splitlines()), len(code), len(docstring), len(comment - code - docstring)


def main() -> None:
    rows = []
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
                rows.append((f"src/lanswitch/{name}", count(fh.read())))
    rows.append(("total", tuple(map(sum, zip(*(counts for _, counts in rows))))))
    width = max(len(label) for label, _ in rows)
    print(f"{'file':<{width}}  {'total':>6} {'code':>6} {'doc':>6} {'comment':>7}")
    for label, (total, code, doc, comment) in rows:
        print(f"{label:<{width}}  {total:>6} {code:>6} {doc:>6} {comment:>7}")


if __name__ == "__main__":
    main()
