"""Count the code lines of the Python files under a path.

Usage (from the root of a source checkout):
    python3 tools/code_lines.py src

A code line is a physical line that holds at least one token of code, as
Python's tokenizer reads it. Comments, blank lines and docstrings are left
out: a docstring is a string that stands as a statement on its own, so a
string literal inside an expression still counts. A statement split over
several lines counts every line it spans that holds a token. Prints the
total over every .py file under the path.
"""
from __future__ import annotations

import argparse
import io
import sys
import tokenize
from pathlib import Path

# tokens that carry no code of their own
_LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def count_source(source: str) -> int:
    """The number of code lines in one module's source text."""
    tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    lines = set()
    statement = []  # the code tokens of the logical line being read
    for tok in tokens:
        if tok.type == tokenize.NEWLINE or tok.type == tokenize.ENDMARKER:
            # a statement that is one string (or implicitly joined strings)
            # is a docstring
            if not all(t.type == tokenize.STRING for t in statement):
                for t in statement:
                    lines.update(range(t.start[0], t.end[0] + 1))
            statement = []
        elif tok.type not in _LAYOUT:
            statement.append(tok)
    return len(lines)


def count_path(path: Path) -> int:
    """Code lines over every .py file under ``path`` (or of ``path`` itself)."""
    files = [path] if path.is_file() else sorted(path.rglob("*.py"))
    return sum(count_source(f.read_text(encoding="utf-8")) for f in files)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("path", type=Path)
    print(count_path(parser.parse_args(argv).path))
    return 0


if __name__ == "__main__":
    sys.exit(main())
