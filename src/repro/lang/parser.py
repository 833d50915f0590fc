"""Recursive-descent parser for the textual IR.

Grammar (keywords are reserved and cannot name variables)::

    program  := function+
    function := "func" NAME "(" [NAME ("," NAME)*] ")" [arrays] "{" block+ "}"
    arrays   := "arrays" "(" [NAME ":" INT ("," NAME ":" INT)*] ")"
    block    := NAME ":" instr*
    instr    := NAME "=" "phi" "(" [NAME ":" operand ("," ...)*] ")"
              | NAME "=" OP operand ["," operand]
              | NAME "=" "load" NAME "," operand
              | NAME "=" operand                       # copy
              | "store" NAME "," operand "," operand
              | "output" operand
              | "jump" NAME
              | "br" operand "," NAME "," NAME
              | "ret" [operand]
    operand  := INT | NAME            # NAME may carry an SSA ".N" suffix

The printer (:mod:`repro.ir.printer`) emits exactly this syntax, so the two
round-trip; tests assert ``parse(print(f)) == print(f)`` structurally.

Every :class:`ParseError` carries the source position (``line``/``column``
attributes, and a ``line:column:`` message prefix).  Duplicate block
labels and redefined SSA names are rejected here, at the point of
definition, rather than surfacing later as confusing verifier failures.

Served requests ship their programs as text, so parsing is on the
serving hot path.  The parser walks the flat token texts of
:func:`repro.lang.lexer.scan` by index and builds one ``Var``/``Const``
per distinct operand text (both are frozen, so occurrences share it).
Positions are not tracked: an error re-lexes the source with
:func:`~repro.lang.lexer.tokenize` and reads the failing token's
``line:column`` by its index.
"""

from __future__ import annotations

from repro.ir.function import Function
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
from repro.ir.ops import BINARY_OPS, UNARY_OPS
from repro.ir.values import Const, Operand, Var
from repro.lang.lexer import Token, scan, tokenize

_KEYWORDS = {"func", "phi", "output", "jump", "br", "ret", "load", "store", "arrays"}
_TERMINATOR_WORDS = {"jump", "br", "ret"}
_RESERVED = _KEYWORDS | set(BINARY_OPS) | set(UNARY_OPS)


class ParseError(Exception):
    """Raised on syntactically invalid input; knows where it happened."""

    def __init__(self, message: str, line: int | None = None,
                 column: int | None = None) -> None:
        if line is not None:
            message = f"{line}:{column}: {message}"
        super().__init__(message)
        self.line = line
        self.column = column


class _Parser:
    def __init__(self, source: str) -> None:
        self.source = source
        self.texts, self.kinds = scan(source)
        self.pos = 0
        #: one shared ``Var``/``Const`` per distinct operand text
        self.operands: dict[str, Operand] = {}
        self._tokens: list[Token] | None = None

    # ------------------------------------------------------------------
    def token(self, index: int | None = None) -> Token:
        """The token at *index* (default: the current one), with its
        position — lexed again only when an error needs it."""
        if self._tokens is None:
            self._tokens = list(tokenize(self.source))
        return self._tokens[self.pos if index is None else index]

    def error(self, message: str, index: int | None = None) -> ParseError:
        token = self.token(index)
        return ParseError(message, token.line, token.column)

    def expect(self, kind: str) -> str:
        text = self.texts[self.pos]
        if self.kinds[text] != kind:
            raise self.error(f"expected {kind!r}, found {self.token()}")
        self.pos += 1
        return text

    def skip_comma(self) -> None:
        if self.texts[self.pos] == ",":
            self.pos += 1

    # ------------------------------------------------------------------
    def parse_program(self) -> list[Function]:
        funcs = []
        while self.texts[self.pos]:  # "" is the EOF text
            funcs.append(self.parse_function())
        if not funcs:
            raise ParseError("empty program")
        return funcs

    def parse_function(self) -> Function:
        index = self.pos
        if self.expect("NAME") != "func":
            raise self.error(f"expected 'func', found {self.token(index)}", index)
        name = self.expect("NAME")
        self.expect("(")
        params: list[Var] = []
        while self.texts[self.pos] != ")":
            # parse_var handles the SSA ".N" suffix, so the parameter list
            # of an SSA-form function (``func f(a.1)``) round-trips.
            params.append(self.parse_var())
            self.skip_comma()
        self.expect(")")
        func = Function(name, params)
        #: versioned SSA names already defined (params count as defs)
        self._defined = {p for p in params if p.version is not None}
        if self.texts[self.pos] == "arrays":
            self.pos += 1
            self.expect("(")
            while self.texts[self.pos] != ")":
                arr_index = self.pos
                arr = self.parse_array_name()
                self.expect(":")
                length = self.expect("INT")
                try:
                    func.declare_array(arr, int(length))
                except ValueError as exc:
                    raise self.error(str(exc), arr_index) from None
                self.skip_comma()
            self.expect(")")
        self.expect("{")
        while self.texts[self.pos] != "}":
            self.parse_block(func)
        self.expect("}")
        return func

    def parse_block(self, func: Function) -> None:
        texts = self.texts
        label_index = self.pos
        label = self.expect("NAME")
        self.expect(":")
        if label in func.blocks:
            raise self.error(f"duplicate block label {label!r}", label_index)
        block = func.add_block(label)
        while True:
            text = texts[self.pos]
            if self.kinds[text] != "NAME":
                raise self.error(
                    f"block {label!r} has no terminator before {self.token()}"
                )
            if text not in _TERMINATOR_WORDS and texts[self.pos + 1] == ":":
                raise self.error(
                    f"block {label!r} has no terminator before label {text!r}"
                )
            if text == "output":
                self.pos += 1
                block.body.append(Output(self.parse_operand()))
            elif text == "store":
                self.pos += 1
                array = self.parse_array_name()
                self.expect(",")
                index = self.parse_operand()
                self.expect(",")
                value = self.parse_operand()
                block.body.append(Store(array, index, value))
            elif text == "jump":
                self.pos += 1
                block.terminator = Jump(self.expect("NAME"))
                return
            elif text == "br":
                self.pos += 1
                cond = self.parse_operand()
                self.expect(",")
                true_target = self.expect("NAME")
                self.expect(",")
                false_target = self.expect("NAME")
                block.terminator = CondJump(cond, true_target, false_target)
                return
            elif text == "ret":
                self.pos += 1
                value: Operand | None = None
                nxt = texts[self.pos]
                kind = self.kinds[nxt]
                if kind == "INT" or (
                    kind == "NAME"
                    and nxt not in _KEYWORDS
                    and texts[self.pos + 1] != ":"
                ):
                    value = self.parse_operand()
                block.terminator = Return(value)
                return
            else:
                self.parse_assignment(block)

    def parse_assignment(self, block) -> None:
        target_index = self.pos
        target = self.parse_var()
        if target.version is not None:
            # Reject an SSA redefinition here rather than in the verifier.
            if target in self._defined:
                raise self.error(
                    f"SSA name {target} defined more than once", target_index
                )
            self._defined.add(target)
        self.expect("=")
        text = self.texts[self.pos]
        if text == "phi":
            self.pos += 1
            self.expect("(")
            args: dict[str, Operand] = {}
            while self.texts[self.pos] != ")":
                pred = self.expect("NAME")
                self.expect(":")
                args[pred] = self.parse_operand()
                self.skip_comma()
            self.expect(")")
            block.phis.append(Phi(target, args))
        elif text == "load":
            self.pos += 1
            array = self.parse_array_name()
            self.expect(",")
            block.body.append(Assign(target, Load(array, self.parse_operand())))
        elif text in BINARY_OPS:
            self.pos += 1
            left = self.parse_operand()
            self.expect(",")
            right = self.parse_operand()
            block.body.append(Assign(target, BinOp(text, left, right)))
        elif text in UNARY_OPS:
            self.pos += 1
            block.body.append(Assign(target, UnaryOp(text, self.parse_operand())))
        else:
            block.body.append(Assign(target, self.parse_operand()))

    def parse_operand(self) -> Operand:
        text = self.texts[self.pos]
        operand = self.operands.get(text)
        if operand is None:
            kind = self.kinds[text]
            if kind == "NAME":
                return self.parse_var()
            if kind != "INT":
                raise self.error(f"expected operand, found {self.token()}")
            operand = self.operands[text] = Const(int(text))
        self.pos += 1
        return operand

    def parse_var(self) -> Var:
        var = self.operands.get(self.texts[self.pos])
        if var.__class__ is Var:
            self.pos += 1
            return var
        index = self.pos
        text = self.expect("NAME")
        if text in _RESERVED:
            raise self.error(
                f"reserved word used as variable: {self.token(index)}", index
            )
        base, dot, version = text.rpartition(".")
        var = self.operands[text] = Var(base, int(version)) if dot else Var(text)
        return var

    def parse_array_name(self) -> str:
        index = self.pos
        text = self.expect("NAME")
        if text in _RESERVED:
            raise self.error(
                f"reserved word used as array name: {self.token(index)}", index
            )
        if "." in text:
            raise self.error(
                f"array names carry no SSA version: {self.token(index)}", index
            )
        return text


def parse_function(source: str) -> Function:
    """Parse exactly one function from *source*."""
    funcs = _Parser(source).parse_program()
    if len(funcs) != 1:
        raise ParseError(f"expected exactly one function, found {len(funcs)}")
    return funcs[0]


def parse_program(source: str) -> list[Function]:
    """Parse one or more functions from *source*."""
    return _Parser(source).parse_program()
