#!/usr/bin/env python3
"""Line counts of Python sources: total and code-only.

    python3 tools/loc.py PATH...

prints, per PATH (a ``.py`` file, or a directory whose ``*.py`` files
are summed), its total lines and its code-only lines: lines that are
not blank, not only a comment and not part of a docstring (the first
string statement of a module, class or function).  A line of any other
string literal, such as a kernel's assembly text, is code.  Standard
library only.
"""
import argparse
import ast
import io
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
             tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING,
             tokenize.ENDMARKER}


def count(source: str) -> tuple[int, int]:
    """``(total lines, code-only lines)`` of one module's source."""
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(
                    first.value, ast.Constant) and isinstance(
                    first.value.value, str):
                code.difference_update(
                    range(first.lineno, first.end_lineno + 1))
    return len(source.splitlines()), len(code)


def count_path(path: Path) -> tuple[int, int]:
    files = sorted(path.rglob("*.py")) if path.is_dir() else [path]
    sums = [count(f.read_text(encoding="utf-8")) for f in files]
    return sum(s[0] for s in sums), sum(s[1] for s in sums)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="+", type=Path)
    args = parser.parse_args(argv)
    print(f"{'total':>8} {'code':>8}  path")
    for path in args.paths:
        total, code = count_path(path)
        print(f"{total:8d} {code:8d}  {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
