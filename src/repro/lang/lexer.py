"""Tokenizer for the textual IR.

Token kinds: ``NAME`` (identifiers, possibly with a ``.N`` SSA-version
suffix handled by the parser; a ``-`` followed by a letter continues a
name, so hyphenated function names such as ``mem-stream`` read back as
printed while ``a-1`` still lexes as ``a`` and ``-1``), ``INT``,
punctuation (``( ) { } , : =``) and ``NEWLINE`` markers are not needed —
the grammar is entirely punctuation-delimited.  ``#`` starts a comment
running to end of line.

The parser reads :func:`scan`: a whole source's token texts from one
C-level pass (strip comments, pad the punctuation, ``str.split``), each
*distinct* text classified once, no per-token object, no positions.
:func:`tokenize` is the position-tracking lexer over the same regex:
``scan`` falls back to it when a chunk is not exactly one token, and the
parser re-lexes with it only to report where an error happened.
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
_COMMENT_RE = re.compile(r"#[^\n]*")
#: Whitespace that ``str.split`` breaks on but :data:`_TOKEN_RE` rejects.
_FOREIGN_SPACE_RE = re.compile(r"[^\S \t\r\n]")


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


def scan(source: str) -> tuple[list[str], dict[str, str]]:
    """The token texts of *source* and the kind of each distinct text.

    The texts are those :func:`tokenize` yields, ending in the ``EOF``
    text ``""``, so index ``i`` names the same token in both.
    """
    text = _COMMENT_RE.sub("", source) if "#" in source else source
    for punct in "(){},:=":
        text = text.replace(punct, f" {punct} ")
    texts = text.split()
    kinds = {"": "EOF"}
    if not _has_foreign_space(text):
        for chunk in set(texts):
            match = _TOKEN_RE.fullmatch(chunk)
            if match is None:
                break
            kinds[chunk] = chunk if match.lastgroup == "PUNCT" else match.lastgroup
        else:
            texts.append("")
            return texts, kinds
    tokens = list(tokenize(source))
    return [t.text for t in tokens], {t.text: t.kind for t in tokens}


def _has_foreign_space(text: str) -> bool:
    if text.isascii():  # the fast path: six characters to look for
        return any(map(text.__contains__, "\x0b\x0c\x1c\x1d\x1e\x1f"))
    return _FOREIGN_SPACE_RE.search(text) is not None
