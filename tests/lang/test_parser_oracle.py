"""Differential oracle for the flat-token front end.

The lexer and parser used to build one ``Token`` per token and one
``Var``/``Const`` per operand occurrence.  That front end is kept below,
verbatim except for its names, as the reference: ``_reference_tokenize``
and ``_ReferenceParser``.  On every input the current parser must either
build the same functions (printed form, entry label and arrays) or raise
the same exception — same type, message, ``line`` and ``column``.

Inputs: the benchmark suites; the four fuzz shapes, raw and after an
SSAPRE compile (in SSA form, with phis, ``.N`` names and ``%pre``
temporaries); and seeded mutants that delete,
duplicate, swap and insert tokens, including bad characters, ``a-1``,
``1a``, comments, foreign whitespace, hyphenated names and keywords.
"""

from __future__ import annotations

import random
from typing import Iterator
import re

import pytest

import repro.lang.lexer as lexer
import repro.lang.parser as parser
from repro.bench.generator import generate_program
from repro.bench.workloads import CFP2006, CINT2006, COMPOSITE, MEMORY, load_workload
from repro.check.driver import SHAPES, spec_for_shape
from repro.ir.instructions import (
    Assign,
    BinOp,
    CondJump,
    Jump,
    Load,
    Output,
    Phi,
    Return,
    Store,
    UnaryOp,
)
from repro.ir.function import Function
from repro.ir.ops import BINARY_OPS, UNARY_OPS
from repro.ir.printer import format_function
from repro.ir.values import Const, Operand, Var
from repro.lang.lexer import LexError, Token
from repro.lang.parser import ParseError, parse_function, parse_program
from repro.passes.compiler import compile as compile_pipeline
from repro.pipeline import prepare

_KEYWORDS = {"func", "phi", "output", "jump", "br", "ret", "load", "store", "arrays"}
_TERMINATOR_WORDS = {"jump", "br", "ret"}

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


def _reference_tokenize(source: str) -> Iterator[Token]:
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


class _ReferenceParser:
    def __init__(self, source: str) -> None:
        self.tokens = list(_reference_tokenize(source))
        self.pos = 0

    # ------------------------------------------------------------------
    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def error(self, message: str, token: Token | None = None) -> ParseError:
        token = token or self.peek()
        return ParseError(message, token.line, token.column)

    def expect(self, kind: str) -> Token:
        token = self.peek()
        if token.kind != kind:
            raise self.error(f"expected {kind!r}, found {token}")
        return self.advance()

    def at_name(self, text: str | None = None) -> bool:
        token = self.peek()
        return token.kind == "NAME" and (text is None or token.text == text)

    # ------------------------------------------------------------------
    def parse_program(self) -> list[Function]:
        funcs = []
        while self.peek().kind != "EOF":
            funcs.append(self.parse_function())
        if not funcs:
            raise ParseError("empty program")
        return funcs

    def parse_function(self) -> Function:
        keyword = self.expect("NAME")
        if keyword.text != "func":
            raise self.error(f"expected 'func', found {keyword}", keyword)
        name = self.expect("NAME").text
        self.expect("(")
        params: list[Var] = []
        while not self.peek().kind == ")":
            # parse_var handles the SSA ".N" suffix, so the parameter list
            # of an SSA-form function (``func f(a.1)``) round-trips.
            params.append(self.parse_var())
            if self.peek().kind == ",":
                self.advance()
        self.expect(")")
        func = Function(name, params)
        #: versioned SSA names already defined (params count as defs)
        self._defined = {p for p in params if p.version is not None}
        if self.at_name("arrays"):
            self.advance()
            self.expect("(")
            while self.peek().kind != ")":
                arr_token = self.peek()
                arr = self.parse_array_name()
                self.expect(":")
                length_token = self.expect("INT")
                try:
                    func.declare_array(arr, int(length_token.text))
                except ValueError as exc:
                    raise self.error(str(exc), arr_token) from None
                if self.peek().kind == ",":
                    self.advance()
            self.expect(")")
        self.expect("{")
        while self.peek().kind != "}":
            self.parse_block(func)
        self.expect("}")
        return func

    def parse_block(self, func: Function) -> None:
        label_token = self.expect("NAME")
        label = label_token.text
        self.expect(":")
        if label in func.blocks:
            raise self.error(f"duplicate block label {label!r}", label_token)
        block = func.add_block(label)
        while True:
            token = self.peek()
            if token.kind != "NAME":
                raise self.error(
                    f"block {label!r} has no terminator before {token}", token
                )
            if token.text not in _TERMINATOR_WORDS and self._name_is_block_label():
                raise self.error(
                    f"block {label!r} has no terminator before label "
                    f"{token.text!r}",
                    token,
                )
            if token.text == "output":
                self.advance()
                block.body.append(Output(self.parse_operand()))
            elif token.text == "store":
                self.advance()
                array = self.parse_array_name()
                self.expect(",")
                index = self.parse_operand()
                self.expect(",")
                value = self.parse_operand()
                block.body.append(Store(array, index, value))
            elif token.text == "jump":
                self.advance()
                block.terminator = Jump(self.expect("NAME").text)
                return
            elif token.text == "br":
                self.advance()
                cond = self.parse_operand()
                self.expect(",")
                true_target = self.expect("NAME").text
                self.expect(",")
                false_target = self.expect("NAME").text
                block.terminator = CondJump(cond, true_target, false_target)
                return
            elif token.text == "ret":
                self.advance()
                value: Operand | None = None
                nxt = self.peek()
                if nxt.kind == "INT" or (
                    nxt.kind == "NAME"
                    and nxt.text not in _KEYWORDS
                    and not self._name_is_block_label()
                ):
                    value = self.parse_operand()
                block.terminator = Return(value)
                return
            else:
                self.parse_assignment(block)

    def _name_is_block_label(self) -> bool:
        """Lookahead: is the NAME at ``pos`` followed by a colon?"""
        return (
            self.peek().kind == "NAME"
            and self.tokens[self.pos + 1].kind == ":"
        )

    def _define(self, target: Var, token: Token) -> None:
        """Record an SSA definition, rejecting redefinitions early."""
        if target.version is None:
            return
        if target in self._defined:
            raise self.error(
                f"SSA name {target} defined more than once", token
            )
        self._defined.add(target)

    def parse_assignment(self, block) -> None:
        target_token = self.peek()
        target = self.parse_var()
        self._define(target, target_token)
        self.expect("=")
        token = self.peek()
        if token.kind == "NAME" and token.text == "phi":
            self.advance()
            self.expect("(")
            args: dict[str, Operand] = {}
            while self.peek().kind != ")":
                pred = self.expect("NAME").text
                self.expect(":")
                args[pred] = self.parse_operand()
                if self.peek().kind == ",":
                    self.advance()
            self.expect(")")
            block.phis.append(Phi(target, args))
            return
        if token.kind == "NAME" and token.text == "load":
            self.advance()
            array = self.parse_array_name()
            self.expect(",")
            index = self.parse_operand()
            block.body.append(Assign(target, Load(array, index)))
            return
        if token.kind == "NAME" and token.text in BINARY_OPS:
            op = self.advance().text
            left = self.parse_operand()
            self.expect(",")
            right = self.parse_operand()
            block.body.append(Assign(target, BinOp(op, left, right)))
            return
        if token.kind == "NAME" and token.text in UNARY_OPS:
            op = self.advance().text
            operand = self.parse_operand()
            block.body.append(Assign(target, UnaryOp(op, operand)))
            return
        block.body.append(Assign(target, self.parse_operand()))

    def parse_operand(self) -> Operand:
        token = self.peek()
        if token.kind == "INT":
            self.advance()
            return Const(int(token.text))
        if token.kind == "NAME":
            return self.parse_var()
        raise self.error(f"expected operand, found {token}", token)

    def parse_var(self) -> Var:
        token = self.expect("NAME")
        if token.text in _KEYWORDS or token.text in BINARY_OPS or token.text in UNARY_OPS:
            raise self.error(f"reserved word used as variable: {token}", token)
        name = token.text
        if "." in name:
            base, _, version = name.rpartition(".")
            return Var(base, int(version))
        return Var(name)

    def parse_array_name(self) -> str:
        token = self.expect("NAME")
        if token.text in _KEYWORDS or token.text in BINARY_OPS or token.text in UNARY_OPS:
            raise self.error(
                f"reserved word used as array name: {token}", token
            )
        if "." in token.text:
            raise self.error(
                f"array names carry no SSA version: {token}", token
            )
        return token.text


# ----------------------------------------------------------------------
def _outcome(parse, source: str):
    """What parsing *source* produces: the functions, or the exception."""
    try:
        funcs = parse(source)
    except Exception as exc:  # noqa: BLE001 - any divergence counts
        return (type(exc), str(exc), getattr(exc, "line", None),
                getattr(exc, "column", None))
    return [(format_function(f), f.entry, f.arrays) for f in funcs]


def _assert_matches_reference(source: str) -> bool:
    """Assert both front ends agree on *source*; True when it parsed."""
    expected = _outcome(lambda s: _ReferenceParser(s).parse_program(), source)
    assert _outcome(parse_program, source) == expected, source
    return isinstance(expected, list)


@pytest.mark.parametrize("name", CINT2006 + CFP2006 + MEMORY + COMPOSITE)
def test_suite_programs_match_reference(name):
    assert _assert_matches_reference(format_function(load_workload(name).program.func))


@pytest.mark.parametrize("shape", SHAPES)
def test_fuzz_shapes_match_reference(shape):
    """Raw programs, then the same programs compiled by SSAPRE and printed
    before SSA destruction: phis, ``.N`` names and ``%pre`` temporaries."""
    for seed in range(100):
        func = generate_program(spec_for_shape(shape, seed)).func
        assert _assert_matches_reference(format_function(func))
        compiled = compile_pipeline(
            prepare(func), "ssapre", pipeline_spec=["construct-ssa", "ssapre"]
        ).func
        assert _assert_matches_reference(format_function(compiled))


# ----------------------------------------------------------------------
_BASES = (
    """
    # a loop, with comments
    func mem-stream(n, a.1) arrays(A: 4, B-x: 2) {
    entry:   # first block
      i = 0
      jump head
    head:
      c = lt i, n
      br c, body, done
    body:
      x.2 = load A, i
      store B-x, 1, -5
      y = neg x.2
      output y
      i = add i, 1
      jump head
    done:
      ret
    }
    """,
    """
    func f(a.1) {
    entry:
      x.1 = a.1
      br x.1, mid, join
    mid:
      jump join
    join:
      y.2 = phi(entry: x.1, mid: 3)
      ret y.2
    }
    func g() { entry: ret 7 }
    """,
)
#: Inputs aimed at one check or one scan path each.
_EDGE_CASES = (
    "func f() { a: ret  a: ret }",
    "func f(a.1) { e: a.1 = 1  ret }",
    "func f() { e: x.1 = 1  x.1 = 2  ret }",
    "func f() arrays(A: 0) { e: ret }",
    "func f() arrays(A: 1, A: 2) { e: ret }",
    "func f() arrays(A.1: 1) { e: ret }",
    "func f() arrays(add: 1) { e: ret }",
    "func f() { e: ret-1 }",
    "func f() { e: output-5  ret }",
    "func f() { e: x = 1\x0c ret }",
    "func f() { e: x = 1 # \x0c é\n ret } # trailing comment",
    "func f() { e: x = 1#c\nret }",
    "func f() { e: x = a#c\nb = 1 ret }",
    "func f() { e: ret 1 } func g(1) { e: ret }",
    "",
    "   # only a comment",
    "func f() { e: x = 1 }",
    "func f() { e: x = 1  f: ret }",
    "func f() { e: ret  x: ret }",
    "func f() { e: ret x }",
    "func f() { e: ret phi }",
    "func f() { e: x = sub 1 }",
    "func f() { e: store A, 1 }",
    "func f(",
    "func",
    "fun f() { e: ret }",
    "func f() { e: ret } fun g() { e: ret }",
    "func f() { e: ret } func g() { e: ret  e: ret }",
    "func f() { e: x = y = 1 ret }",
)
_INSERTS = (
    "@", "a-1", "1a", "-5", "--5", "# note\n", "#", "x.", ".5", "1.2", "a.b",
    "x-y.2", "mem-stream", "\t", "\r\n", "\x0b", "\x0c", "\x1c", "\xa0",
    " ", "é", "٣", "func", "{", "}", "(", ")", ",", ":", "=",
)
_RESERVED = ("func", "phi", "output", "jump", "br", "ret", "load", "store",
             "arrays", "add", "neg", "lt")
_PUNCT = set("(){},:=")


def _mutant(texts: list[str], rng: random.Random) -> str:
    """The token *texts* with up to three edits, re-joined by random
    whitespace (none at all next to punctuation, sometimes)."""
    texts = list(texts)
    for _ in range(rng.randint(0, 3)):
        i = rng.randrange(len(texts))
        edit = rng.randrange(6)
        if edit == 0 and len(texts) > 1:
            del texts[i]
        elif edit == 1:
            texts.insert(i, texts[i])
        elif edit == 2:
            j = rng.randrange(len(texts))
            texts[i], texts[j] = texts[j], texts[i]
        elif edit == 3:
            texts.insert(i, rng.choice(_INSERTS))
        elif edit == 4:
            texts[i] = rng.choice(_RESERVED)
        else:
            texts[i] += rng.choice(("-x", "-1", "-mem", ".3"))
    pieces = []
    for text, following in zip(texts, texts[1:] + [""]):
        pieces.append(text)
        if rng.random() < 0.5 and (text in _PUNCT or following in _PUNCT):
            continue
        pieces.append(rng.choice((" ", " ", "\n", "\n  ", "\t", "\r\n", "  ")))
    return "".join(pieces)


def test_mutants_match_reference():
    bases = [*_BASES, *_EDGE_CASES] + [
        format_function(generate_program(spec_for_shape(shape, 0)).func)
        for shape in SHAPES
    ]
    base_texts = [  # the one base that does not lex has no tokens to edit
        [token.text for token in _reference_tokenize(source)][:-1] or ["func"]
        for source in bases
        if "\x0c" not in source
    ]
    rng = random.Random(0)
    parsed = 0
    for k in range(800):
        parsed += _assert_matches_reference(_mutant(base_texts[k % len(base_texts)], rng))
    # Both outcomes must stay well represented.
    assert 50 <= parsed <= 750, parsed


def test_edge_cases_match_reference():
    for source in _EDGE_CASES:
        _assert_matches_reference(source)


def test_each_base_parses_and_single_function_entry_point_agrees():
    for source in _BASES:
        assert _assert_matches_reference(source)
    with pytest.raises(ParseError, match="expected exactly one function"):
        parse_function(_BASES[1])
    assert format_function(parse_function(_BASES[0])).startswith("func mem-stream(")


# ----------------------------------------------------------------------
def test_valid_source_never_tracks_positions(monkeypatch):
    """A valid program parses without the position-tracking tokenizer,
    and each distinct operand text becomes one shared object."""

    def no_positions(source):
        raise AssertionError("tokenize() called on a valid source")

    monkeypatch.setattr(lexer, "tokenize", no_positions)
    monkeypatch.setattr(parser, "tokenize", no_positions)
    source = format_function(load_workload("mcf").program.func)
    assert len(lexer.scan(source)[0]) >= 2000
    func = parse_function(source)
    occurrences = [
        operand
        for block in func.blocks.values()
        for stmt in (*block.body, block.terminator)
        for operand in (getattr(stmt, "target", None), *stmt.used_operands())
        if operand == Var("v1")
    ]
    assert len(occurrences) > 10
    assert all(operand is occurrences[0] for operand in occurrences)
