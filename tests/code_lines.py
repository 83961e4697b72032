"""Count the code lines of the package: the budget unit of the change log.

A code line is a physical line that holds part of a statement other than
a docstring: blank lines, comment lines and the lines of a string that
stands alone as a statement (a docstring) do not count.  A statement that
runs over several lines counts each of them.  Standard library only::

    python tests/code_lines.py [directory]

prints the count of each module of the directory (by default
``src/starweight``) and the total.
"""

from __future__ import annotations

import io
import sys
import tokenize
from pathlib import Path

# tokens that mark no code; NEWLINE, which ends a statement, is kept
_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of code lines of one module's source."""
    tokens = [t for t in tokenize.generate_tokens(io.StringIO(source).readline) if t.type not in _SKIP]
    lines: set[int] = set()
    starts_statement = True
    for i, tok in enumerate(tokens):
        if tok.type == tokenize.NEWLINE:
            starts_statement = True
            continue
        ends_statement = i + 1 == len(tokens) or tokens[i + 1].type == tokenize.NEWLINE
        if not (tok.type == tokenize.STRING and starts_statement and ends_statement):
            lines.update(range(tok.start[0], tok.end[0] + 1))
        starts_statement = False
    return len(lines)


def count(directory: Path) -> dict[str, int]:
    """Code lines per module of the directory, by file name."""
    return {p.name: code_lines(p.read_text(encoding="utf-8")) for p in sorted(directory.glob("*.py"))}


def main(argv: list[str]) -> int:
    directory = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "starweight"
    counts = count(directory)
    for name, n in counts.items():
        print(f"{n:6d}  {name}")
    print(f"{sum(counts.values()):6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
