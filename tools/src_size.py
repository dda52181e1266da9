"""Print the source size of the ``nicecf`` package, per module and in total.

A line counts when some token other than a comment starts, ends or runs
through it, so every line of a docstring counts, blank lines inside it
included, while blank lines and comment-only lines do not. Run it from the
repository root, or pass another package directory:

    python tools/src_size.py [src/nicecf]
"""

import io
import sys
import tokenize
from pathlib import Path

LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def source_lines(text: str) -> int:
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    package = Path(argv[1] if len(argv) > 1 else "src/nicecf")
    total = 0
    for path in sorted(package.glob("*.py")):
        n = source_lines(path.read_text(encoding="utf-8"))
        total += n
        print(f"{path.name:20} {n:5}")
    print(f"{'total':20} {total:5}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
