#!/usr/bin/env python3
"""Line counts of each module of ``src/momentkit``, with and without comments
and docstrings.

``lines`` counts every physical line.  ``code`` counts the lines that hold a
token other than a comment or a docstring (a string statement that opens a
module, class or function body), so blank lines are not code either.  The
net line delta of a change is the difference of the totals at two commits::

    python3 scripts/src_lines.py
"""

import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "momentkit"
LAYOUT = {tokenize.ENCODING, tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
          tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(text: str) -> set[int]:
    """Numbers of the lines of ``text`` that hold code."""
    lines = set()
    statement = []  # the tokens of the current logical line
    opens_body = True  # the next statement is the first of the module or of a block
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.INDENT:
            opens_body = True
        if tok.type not in LAYOUT:
            statement.append(tok)
        elif tok.type == tokenize.NEWLINE and statement:
            if not (opens_body and all(t.type == tokenize.STRING for t in statement)):
                for t in statement:
                    lines.update(range(t.start[0], t.end[0] + 1))
            statement, opens_body = [], False
    return lines


def main() -> None:
    rows = []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        rows.append((path.name, len(text.splitlines()), len(code_lines(text))))
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    width = max(len(r[0]) for r in rows)
    print(f"{'module':<{width}}  {'lines':>6}  {'code':>6}")
    for name, lines, code in rows:
        print(f"{name:<{width}}  {lines:>6}  {code:>6}")


if __name__ == "__main__":
    main()
