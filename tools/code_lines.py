"""Count the code lines of each module of the package.

Usage (from the repository root):

    python3 tools/code_lines.py [DIR]

A code line is a line that holds at least one token other than a comment, a
docstring or layout (newlines, indentation).  A docstring here is a string
that forms a whole statement, as at the top of a module, class or function.
A token that spans several lines, such as a triple-quoted string passed as an
argument, makes each of them a code line.  Prints one line per module of DIR
(default ``src/treegls``), in name order, and then the total.
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

# Tokens that make no line a code line.  NEWLINE, which ends a statement,
# is kept to find docstrings and then skipped too.
_SKIP = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def code_lines(path: Path) -> int:
    """The number of code lines of one Python source file."""
    with open(path, "rb") as fh:
        tokens = [t for t in tokenize.tokenize(fh.readline) if t.type not in _SKIP]
    lines = set()
    # A statement starts after a NEWLINE (or at the top of the file); a
    # string alone between two statement starts is a docstring.
    for i, tok in enumerate(tokens):
        if tok.type == tokenize.NEWLINE:
            continue
        starts_statement = i == 0 or tokens[i - 1].type == tokenize.NEWLINE
        ends_statement = i + 1 == len(tokens) or tokens[i + 1].type == tokenize.NEWLINE
        if tok.type == tokenize.STRING and starts_statement and ends_statement:
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> None:
    root = Path(argv[0] if argv else "src/treegls")
    counts = {p.stem: code_lines(p) for p in sorted(root.glob("*.py"))}
    width = max(map(len, counts), default=0)
    for name, count in counts.items():
        print(f"{name:<{width}}  {count:>6,}")
    print(f"{'total':<{width}}  {sum(counts.values()):>6,}")


if __name__ == "__main__":
    main(sys.argv[1:])
