"""Count the code lines of ``src/``: every line that holds a token other than
a comment, a docstring or the layout tokens, so blank lines, comment lines
and docstrings count for nothing.

Run from a checkout: ``python tests/source_lines.py [ROOT]``. It prints one
line per module and the total; ROOT defaults to the checkout this file is in.
pytest does not collect this file.
"""

import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.NEWLINE, tokenize.NL, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER, tokenize.ENCODING, tokenize.COMMENT}


def code_lines(path: Path) -> int:
    """The number of lines of ``path`` that hold code."""
    lines = set()
    with path.open("rb") as fh:
        # a string token that opens a logical line is a docstring or a bare
        # string statement, neither of which is code
        starts = True
        for tok in tokenize.tokenize(fh.readline):
            if tok.type in _LAYOUT:
                starts = starts or tok.type in (tokenize.NEWLINE, tokenize.INDENT,
                                                tokenize.DEDENT)
                continue
            bare = starts and tok.type == tokenize.STRING
            starts = False
            if not bare:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent
    total = 0
    for path in sorted((root / "src").rglob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{count:6d} {path.relative_to(root)}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
