"""Count the lines of each module of the agequil package.

Prints two counts per module under src/agequil, then their totals:

- lines: what `wc -l` counts, the newline characters of the file;
- code: the lines that hold a token of code, by Python's tokenize, so a
  blank line, a comment line or a line of a docstring (a string that is a
  statement on its own) is left out.

    python3 scripts/count_lines.py [package directory]

The package directory defaults to this checkout's src/agequil.
"""

from __future__ import annotations

import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "agequil"
LAYOUT = {tokenize.COMMENT, tokenize.NL}
STATEMENT_EDGE = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(text: str) -> int:
    """Lines of text on which a token starts or runs that is not layout, a
    comment or a docstring."""
    tokens = [t for t in tokenize.generate_tokens(io.StringIO(text).readline) if t.type not in LAYOUT]
    lines: set[int] = set()
    for i, tok in enumerate(tokens):
        if tok.type in STATEMENT_EDGE:
            continue
        if (tok.type == tokenize.STRING and (i == 0 or tokens[i - 1].type in STATEMENT_EDGE)
                and tokens[i + 1].type in STATEMENT_EDGE):
            continue  # a docstring
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def counts(package: Path = PACKAGE) -> dict[str, tuple[int, int]]:
    """(lines, code lines) of every module, by file name."""
    out = {}
    for path in sorted(package.glob("*.py")):
        text = path.read_text()
        out[path.name] = (text.count("\n"), code_lines(text))
    return out


def main(argv: list[str]) -> None:
    table = counts(Path(argv[0]) if argv else PACKAGE)
    print(f"{'module':<18}{'lines':>7}{'code':>7}")
    for name, (lines, code) in table.items():
        print(f"{name:<18}{lines:>7}{code:>7}")
    print(f"{'total':<18}{sum(n for n, _ in table.values()):>7}{sum(c for _, c in table.values()):>7}")


if __name__ == "__main__":
    main(sys.argv[1:])
