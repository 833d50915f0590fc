"""Tokenizer for the textual IR.

Token kinds: ``NAME`` (identifiers, possibly with a ``.N`` SSA-version
suffix handled by the parser; a ``-`` followed by a letter continues a
name, so hyphenated function names such as ``mem-stream`` read back as
printed while ``a-1`` still lexes as ``a`` and ``-1``), ``INT``,
punctuation (``( ) { } , : =``) and ``NEWLINE`` markers are not needed —
the grammar is entirely punctuation-delimited.  ``#`` starts a comment
running to end of line.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator


@dataclass(frozen=True, slots=True)
class Token:
    kind: str
    text: str
    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.kind}({self.text!r})@{self.line}:{self.column}"


class LexError(Exception):
    """Raised on characters the lexer does not understand."""


_TOKEN_RE = re.compile(
    r"""
    (?P<WS>[ \t\r\n]+)
  | (?P<COMMENT>\#[^\n]*)
  | (?P<INT>-?\d+)
  | (?P<NAME>[%A-Za-z_][%A-Za-z_0-9]*(?:-[%A-Za-z_][%A-Za-z_0-9]*)*(\.\d+)?)
  | (?P<PUNCT>[(){},:=])
    """,
    re.VERBOSE,
)


def tokenize(source: str) -> Iterator[Token]:
    """Yield tokens; raises :class:`LexError` on bad input."""
    line = 1
    line_start = 0
    pos = 0
    while pos < len(source):
        match = _TOKEN_RE.match(source, pos)
        if match is None:
            column = pos - line_start + 1
            raise LexError(f"unexpected character {source[pos]!r} at {line}:{column}")
        kind = match.lastgroup
        text = match.group()
        assert kind is not None
        if kind in ("WS", "COMMENT"):
            newlines = text.count("\n")
            if newlines:
                line += newlines
                line_start = match.start() + text.rindex("\n") + 1
        else:
            column = match.start() - line_start + 1
            yield Token(kind if kind != "PUNCT" else text, text, line, column)
        pos = match.end()
    yield Token("EOF", "", line, pos - line_start + 1)
