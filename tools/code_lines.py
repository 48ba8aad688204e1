"""Count the code lines of the package, per file and in total.

Usage, from the repository root:

    python3 tools/code_lines.py [DIR]

DIR defaults to ``src/zfhp``; every ``*.py`` file directly in it is
counted.  The rule, applied to the tokens of Python's ``tokenize``:

* a line counts when some token other than those below starts on it,
  ends on it or spans it (a string over several lines counts every line
  it covers);
* layout never counts: NEWLINE, NL, INDENT, DEDENT and ENDMARKER;
* comments never count;
* a docstring never counts.  A docstring here is any statement made of
  string literals alone (a logical line whose tokens, layout and comments
  aside, are all STRING), wherever it stands, not only the first
  statement of a module, class or function.

So blank lines, comment lines and the lines of docstrings are left out,
and a line holding code and a trailing comment counts once.  The output
is one ``count path`` line per file, sorted by path, then ``count total``.
Standard library only.
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.NEWLINE, tokenize.NL, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER, tokenize.COMMENT}


def code_lines(path: Path) -> int:
    """The number of lines of ``path`` that the rule above counts."""
    lines: set[int] = set()
    statement: list[tokenize.TokenInfo] = []
    with tokenize.open(path) as source:
        for token in tokenize.generate_tokens(source.readline):
            if token.type not in _NOT_CODE:
                statement.append(token)
            elif token.type in (tokenize.NEWLINE, tokenize.ENDMARKER) and statement:
                if any(t.type != tokenize.STRING for t in statement):
                    for t in statement:
                        lines.update(range(t.start[0], t.end[0] + 1))
                statement = []
    return len(lines)


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path("src/zfhp")
    total = 0
    for path in sorted(root.glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{count} {path}")
    print(f"{total} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
