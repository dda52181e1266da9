"""Print the source size of the ``nicecf`` package, per module and in total.

A line counts when some token other than a comment starts, ends or runs
through it, so every line of a docstring counts, blank lines inside it
included, while blank lines and comment-only lines do not. Run it from the
repository root, or pass another package directory:

    python tools/src_size.py [src/nicecf] [--ref REV]

With ``--ref REV`` it also prints each module's size at the git revision
``REV`` (read with ``git show``, so the working tree is not touched) and the
difference, current minus ``REV``; a module missing on one side counts 0
there.
"""

import argparse
import io
import subprocess
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


def git(*args: str, cwd: Path | None = None) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True,
                          text=True).stdout


def sizes_at(package: Path, rev: str) -> dict[str, int]:
    """Each ``*.py`` module of ``package`` at revision ``rev``, by name, and its size."""
    top = Path(git("rev-parse", "--show-toplevel", cwd=package).strip()).resolve()
    tree = f"{package.resolve().relative_to(top).as_posix()}/"
    names = git("ls-tree", "--name-only", f"{rev}:{tree}", cwd=top).split()
    return {name: source_lines(git("show", f"{rev}:{tree}{name}", cwd=top))
            for name in names if name.endswith(".py")}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("package", nargs="?", default="src/nicecf", type=Path)
    parser.add_argument("--ref", help="also print the sizes at this git revision")
    args = parser.parse_args(argv[1:])
    now = {path.name: source_lines(path.read_text(encoding="utf-8"))
           for path in sorted(args.package.glob("*.py"))}
    if args.ref is None:
        for name, n in now.items():
            print(f"{name:20} {n:5}")
        print(f"{'total':20} {sum(now.values()):5}")
        return 0
    try:
        before = sizes_at(args.package, args.ref)
    except subprocess.CalledProcessError as exc:
        print(f"error: {exc.stderr.strip()}", file=sys.stderr)
        return 1
    print(f"{'module':20} {'now':>5} {args.ref[:12]:>12} {'diff':>6}")
    for name in sorted(now.keys() | before.keys()):
        a, b = now.get(name, 0), before.get(name, 0)
        print(f"{name:20} {a:5} {b:12} {a - b:+6}")
    a, b = sum(now.values()), sum(before.values())
    print(f"{'total':20} {a:5} {b:12} {a - b:+6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
