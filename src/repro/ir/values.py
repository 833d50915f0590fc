"""Operand values of the three-address IR.

The IR has exactly two kinds of operand: :class:`Const` (an immutable
integer literal) and :class:`Var` (a named variable, optionally carrying an
SSA version).  A variable with ``version is None`` belongs to a non-SSA
program; SSA construction rewrites every ``Var`` to a versioned one.

Both kinds are frozen dataclasses so they can be used as dictionary keys —
the PRE algorithms key many tables on operands.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union


@dataclass(frozen=True, slots=True)
class Const:
    """An integer literal operand."""

    value: int

    def __reduce__(self):
        return Const, (self.value,)

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True, slots=True)
class Var:
    """A variable operand.

    ``name`` is the base (source-level) name; ``version`` is the SSA
    version, or ``None`` when the program is not in SSA form.  Two
    expressions are *lexically identified* (paper, footnote 1) when they
    apply the same operator to operands with equal base names — versions are
    deliberately ignored for that purpose.
    """

    name: str
    version: int | None = None

    # Pickle through the constructor (Const does the same): the default
    # for a frozen slotted dataclass restores each field through
    # ``dataclasses.fields()`` per object, which dominates unpickling a
    # cached artifact's IR.
    def __reduce__(self):
        return Var, (self.name, self.version)

    def with_version(self, version: int) -> "Var":
        """Return this variable carrying the given SSA version."""
        return Var(self.name, version)

    @property
    def base(self) -> "Var":
        """The version-less variable with the same name."""
        return Var(self.name) if self.version is not None else self

    def __str__(self) -> str:
        if self.version is None:
            return self.name
        return f"{self.name}.{self.version}"


#: Anything that may appear as an operand of an instruction.
Operand = Union[Const, Var]


def operand_base_key(operand: Operand) -> object:
    """Key identifying an operand lexically (base name, or constant value).

    Used to build expression-class keys: versions are stripped from
    variables, constants stand for themselves.
    """
    if isinstance(operand, Var):
        return ("var", operand.name)
    return ("const", operand.value)


def is_var(operand: Operand) -> bool:
    """True when *operand* is a variable (of any SSA version)."""
    return isinstance(operand, Var)
