"""Count the code lines of Python modules, as ``tokenize`` reads them.

A line counts when it holds a token other than a comment, a blank or
continuation line break (NL), a logical line end (NEWLINE), an INDENT or a
DEDENT, and other than a string that is a statement by itself (a docstring).
A token that spans lines counts on each line it spans.  Layout, comments
and docstrings so do not count, and a statement split over several lines
counts each of them.

    python tests/code_lines.py src/qherm

prints each module's count and the total.  A path may also name one file.
"""

from __future__ import annotations

import os
import sys
import tokenize

_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
    tokenize.ENCODING,
}


def code_lines(path: str) -> int:
    """The number of lines of ``path`` that hold a code token."""
    lines: set[int] = set()
    statement: list[tokenize.TokenInfo] = []
    with open(path, "rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type != tokenize.NEWLINE:
                if tok.type not in _LAYOUT:
                    statement.append(tok)
                continue
            # a logical line of strings alone is a docstring or string statement
            if not all(t.type == tokenize.STRING for t in statement):
                for t in statement:
                    lines.update(range(t.start[0], t.end[0] + 1))
            statement = []
    return len(lines)


def _modules(path: str) -> list[str]:
    if os.path.isfile(path):
        return [path]
    return sorted(
        os.path.join(root, name)
        for root, _, names in os.walk(path)
        for name in names
        if name.endswith(".py")
    )


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python tests/code_lines.py PATH", file=sys.stderr)
        return 2
    total = 0
    for module in _modules(argv[0]):
        count = code_lines(module)
        total += count
        print(f"{count:6d}  {module}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
