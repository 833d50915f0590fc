"""Functions and basic blocks.

A :class:`Function` owns an ordered mapping of labelled
:class:`BasicBlock` objects.  Control flow is stored only in terminators;
predecessor/successor views are provided by :mod:`repro.ir.cfg`, which is
rebuilt on demand so block surgery never leaves stale caches behind.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.ir.instructions import (
    Assign,
    BinOp,
    CondJump,
    Jump,
    Load,
    Output,
    Phi,
    Return,
    Statement,
    Store,
    Terminator,
    UnaryOp,
)
from repro.ir.values import Var


@dataclass(slots=True)
class BasicBlock:
    """One basic block: phis, body statements, terminator."""

    label: str
    phis: list[Phi] = field(default_factory=list)
    body: list[Statement] = field(default_factory=list)
    terminator: Terminator = field(default_factory=Return)

    def successors(self) -> tuple[str, ...]:
        return self.terminator.successors()

    def statements(self) -> Iterator[Statement]:
        """Iterate body statements (not phis, not the terminator)."""
        return iter(self.body)

    def defined_vars(self) -> Iterator[Var]:
        """All variables defined in this block (phis then body)."""
        for phi in self.phis:
            yield phi.target
        for stmt in self.body:
            if isinstance(stmt, Assign):
                yield stmt.target

    def __str__(self) -> str:
        lines = [f"{self.label}:"]
        lines.extend(f"  {phi}" for phi in self.phis)
        lines.extend(f"  {stmt}" for stmt in self.body)
        lines.append(f"  {self.terminator}")
        return "\n".join(lines)


class Function:
    """A single-entry procedure made of basic blocks.

    Blocks are kept in insertion order in :attr:`blocks`; the entry block is
    named by :attr:`entry`.  ``params`` lists the formal parameters (base
    variables; SSA construction assigns them version 1 at entry).
    """

    def __init__(self, name: str, params: list[Var] | None = None) -> None:
        self.name = name
        self.params: list[Var] = list(params or [])
        #: Array symbols: name -> length.  A separate, non-SSA namespace;
        #: contents are initialised deterministically from the name (see
        #: :func:`repro.ir.memory.initial_array`) and mutated by stores.
        self.arrays: dict[str, int] = {}
        self.blocks: dict[str, BasicBlock] = {}
        self.entry: str | None = None
        self._label_counter = 0
        self._temp_counter = 0
        self._base_names: set[str] | None = None
        self._cfg_generation = 0
        self._code_generation = 0

    # ------------------------------------------------------------------
    # Mutation generations (consumed by repro.passes.cache.AnalysisCache)
    # ------------------------------------------------------------------
    @property
    def cfg_generation(self) -> int:
        """Bumped whenever the CFG shape (blocks/edges) may have changed."""
        return self._cfg_generation

    @property
    def code_generation(self) -> int:
        """Bumped whenever any instruction may have changed.

        A CFG mutation is also a code mutation, so this never lags
        :attr:`cfg_generation`.
        """
        return self._code_generation

    def mark_cfg_mutated(self) -> None:
        """Record a (possible) CFG-shape mutation."""
        self._cfg_generation += 1
        self._code_generation += 1

    def mark_code_mutated(self) -> None:
        """Record a (possible) instruction mutation with the CFG intact."""
        self._code_generation += 1

    # ------------------------------------------------------------------
    # Array management
    # ------------------------------------------------------------------
    def declare_array(self, name: str, length: int) -> None:
        """Register array *name* with *length* elements.

        Raises on duplicate declarations and non-positive or oversized
        lengths; array contents at entry are a pure function of the name
        (see :mod:`repro.ir.memory`).
        """
        from repro.ir.memory import MAX_ARRAY_LENGTH

        if name in self.arrays:
            raise ValueError(f"duplicate array declaration: {name!r}")
        if length <= 0 or length > MAX_ARRAY_LENGTH:
            raise ValueError(
                f"array {name!r} length must be in 1..{MAX_ARRAY_LENGTH}, "
                f"got {length}"
            )
        self.arrays[name] = length
        self.mark_code_mutated()

    # ------------------------------------------------------------------
    # Block management
    # ------------------------------------------------------------------
    def add_block(self, label: str | None = None) -> BasicBlock:
        """Create and register a new block; the first one becomes the entry."""
        if label is None:
            label = self.fresh_label()
        if label in self.blocks:
            raise ValueError(f"duplicate block label: {label!r}")
        block = BasicBlock(label)
        self.blocks[label] = block
        if self.entry is None:
            self.entry = label
        self.mark_cfg_mutated()
        return block

    def remove_block(self, label: str) -> None:
        """Delete a block (caller is responsible for fixing references)."""
        if label == self.entry:
            raise ValueError("cannot remove the entry block")
        del self.blocks[label]
        self.mark_cfg_mutated()

    def block(self, label: str) -> BasicBlock:
        return self.blocks[label]

    @property
    def entry_block(self) -> BasicBlock:
        if self.entry is None:
            raise ValueError(f"function {self.name!r} has no blocks")
        return self.blocks[self.entry]

    def fresh_label(self, hint: str = "B") -> str:
        """A block label not yet used in this function."""
        while True:
            self._label_counter += 1
            label = f"{hint}{self._label_counter}"
            if label not in self.blocks:
                return label

    def fresh_temp(self, hint: str = "%t") -> Var:
        """A variable base name not used anywhere in this function.

        The name set is scanned once and cached; every name handed out is
        added to the cache, so repeated calls are O(1).  (All definition
        paths in this code base either reuse existing names or come
        through this method, keeping the cache sound.)
        """
        if self._base_names is None:
            self._base_names = self._all_base_names()
        while True:
            self._temp_counter += 1
            name = f"{hint}{self._temp_counter}"
            if name not in self._base_names:
                self._base_names.add(name)
                return Var(name)

    def _all_base_names(self) -> set[str]:
        names = {param.name for param in self.params}
        for block in self.blocks.values():
            for var in block.defined_vars():
                names.add(var.name)
        return names

    # ------------------------------------------------------------------
    # Whole-function iteration helpers
    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[BasicBlock]:
        return iter(self.blocks.values())

    def __len__(self) -> int:
        return len(self.blocks)

    def statement_count(self) -> int:
        """Total number of phis + body statements + terminators."""
        return sum(len(b.phis) + len(b.body) + 1 for b in self)

    # ------------------------------------------------------------------
    # Cloning
    # ------------------------------------------------------------------
    def clone(self, name: str | None = None) -> "Function":
        """A deep, independent copy of this function.

        Equivalent to ``copy.deepcopy`` for every IR type that can occur
        in a verified function, but an order of magnitude faster: the IR
        is a closed shape (blocks → phis/statements/terminator → frozen
        operands), so nothing needs memo bookkeeping.  Operand objects
        (:class:`Var`/:class:`Const`) are immutable and shared; every
        mutable instruction object is fresh, so transforming the clone
        can never leak into the original.
        """
        out = Function(name or self.name, params=list(self.params))
        out.arrays = dict(self.arrays)
        out.entry = self.entry
        out._label_counter = self._label_counter
        out._temp_counter = self._temp_counter
        for label, block in self.blocks.items():
            copied = BasicBlock(label)
            copied.phis = [Phi(phi.target, dict(phi.args)) for phi in block.phis]
            copied.body = [clone_statement(stmt) for stmt in block.body]
            copied.terminator = clone_terminator(block.terminator)
            out.blocks[label] = copied
        return out

    def __str__(self) -> str:
        from repro.ir.printer import format_function

        return format_function(self)


def clone_statement(stmt: Statement) -> Statement:
    """A fresh copy of a body statement; operands are shared (immutable)."""
    if isinstance(stmt, Assign):
        rhs = stmt.rhs
        if isinstance(rhs, BinOp):
            rhs = BinOp(rhs.op, rhs.left, rhs.right)
        elif isinstance(rhs, UnaryOp):
            rhs = UnaryOp(rhs.op, rhs.operand)
        elif isinstance(rhs, Load):
            rhs = Load(rhs.array, rhs.index)
        return Assign(stmt.target, rhs)
    if isinstance(stmt, Output):
        return Output(stmt.value)
    if isinstance(stmt, Store):
        return Store(stmt.array, stmt.index, stmt.value)
    raise TypeError(f"cannot clone statement {stmt!r}")


def clone_terminator(term: Terminator) -> Terminator:
    """A fresh copy of a terminator."""
    if isinstance(term, Jump):
        return Jump(term.target)
    if isinstance(term, CondJump):
        return CondJump(term.cond, term.true_target, term.false_target)
    if isinstance(term, Return):
        return Return(term.value)
    raise TypeError(f"cannot clone terminator {term!r}")
