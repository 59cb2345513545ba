#!/usr/bin/env python3
"""Code-only line counts of the `uavrelay` package, per module.

A line counts when it holds code: blank lines, comment lines and the
lines of docstrings (the string that opens a module, class or function
body) are left out.  A line that holds code and a trailing comment
counts, and so does every line of a string that is not a docstring.

    python3 scripts/code_lines.py [CHECKOUT]
    python3 scripts/code_lines.py --diff BASE HEAD

The first form prints each module of CHECKOUT's src/uavrelay (this
checkout by default) and the total.  The second prints BASE's and
HEAD's counts per module side by side, with HEAD - BASE, and the totals;
a module missing from one side counts 0 there.
"""

import argparse
import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src") / "uavrelay"
_LAYOUT = frozenset((tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
                     tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER))


def docstring_lines(source: str) -> set[int]:
    """The line numbers that the module's, classes' and functions'
    docstrings span."""
    out: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                out.update(range(first.lineno, first.end_lineno + 1))
    return out


def code_lines(source: str) -> int:
    """The number of lines of `source` that hold code."""
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(source))


def count(checkout: Path) -> dict[str, int]:
    """Code-only lines of each module of `checkout`'s package, by file name."""
    package = checkout / PACKAGE
    if not package.is_dir():
        raise SystemExit(f"code_lines: no package at {package}")
    return {path.name: code_lines(path.read_text())
            for path in sorted(package.glob("*.py"))}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("checkout", nargs="?", type=Path, default=ROOT)
    ap.add_argument("--diff", nargs=2, type=Path, metavar=("BASE", "HEAD"))
    args = ap.parse_args(argv)
    if args.diff is None:
        counts = count(args.checkout)
        for name, n in counts.items():
            print(f"{name:20s} {n:6d}")
        print(f"{'total':20s} {sum(counts.values()):6d}")
        return 0
    base, head = (count(path) for path in args.diff)
    print(f"{'module':20s} {'base':>6s} {'head':>6s} {'change':>7s}")
    for name in sorted(base.keys() | head.keys()):
        a, b = base.get(name, 0), head.get(name, 0)
        print(f"{name:20s} {a:6d} {b:6d} {b - a:+7d}")
    a, b = sum(base.values()), sum(head.values())
    print(f"{'total':20s} {a:6d} {b:6d} {b - a:+7d}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
