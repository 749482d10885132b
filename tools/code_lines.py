"""Count the code lines of the evoalg package, module by module.

A line is a code line when it holds a token other than a comment and that
token is not a module, class or function docstring.  Blank lines, comment
lines and docstring lines do not count; every line of a multi-line string
that is not a docstring does, and so does code with a trailing comment.

Run from anywhere: python tools/code_lines.py
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "evoalg"
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree):
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source):
    """The sorted numbers of the code lines of a Python source text."""
    docs = docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in LAYOUT or (tok.type == tokenize.STRING and tok.start[0] in docs):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return sorted(lines)


def main():
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        count = len(code_lines(path.read_text(encoding="utf-8")))
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
