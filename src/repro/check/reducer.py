"""Delta-debugging reduction of a failing IR test case.

Given a source function and a *predicate* ("does the interesting failure
still reproduce on this candidate?"), the reducer greedily applies seven
shrinking strategies until none makes progress:

1. **straighten** — rewrite a conditional branch into an unconditional
   jump (both arms are tried), which unrolls loops to zero trips and
   collapses diamonds to one arm;
2. **drop-block** — delete one block wholesale, retargeting its
   predecessors to one of its successors;
3. **inline-jump** — absorb a jump-only edge so single-predecessor
   blocks (including return blocks, which drop-block cannot touch)
   disappear into their predecessor;
4. **drop-store** — delete one ``store`` statement; tried before the
   generic statement drop because removing a store deletes a whole
   may-alias kill from every load class at once, which typically
   collapses the memory side of a failure in a few edits;
5. **drop-instruction** — delete one body statement;
6. **constify** — replace a variable operand with the constant ``1``,
   detaching the statement from the dataflow that feeds it;
7. **constify-index** — replace a variable ``load``/``store`` index with
   the constant ``0`` (in bounds for every declared array), which both
   detaches the index dataflow and turns a may-trap load class into a
   provably in-bounds, speculatable one.

Every candidate is verified (:func:`repro.ir.verifier.verify_function`)
before the — much more expensive — predicate runs, and every accepted
candidate must *still* satisfy the predicate, so the invariant "the
current function reproduces the failure" holds at every step.  The final
function is emitted as text via the printer and checked to round-trip
through the parser structurally unchanged
(:mod:`repro.ir.structural`), so the ``.ir`` artifact on disk is exactly
the function that failed.

The strategies only ever *remove* or *simplify*, so reduction terminates:
each accepted edit strictly decreases the tuple (blocks, statements,
variable operands), which is a well-founded order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro.ir.cfg import remove_unreachable_blocks
from repro.ir.function import Function
from repro.ir.instructions import (
    Assign,
    BinOp,
    CondJump,
    Jump,
    Load,
    Store,
    retarget,
)
from repro.ir.structural import structural_diff
from repro.ir.values import Const, Var
from repro.ir.verifier import VerificationError, verify_function
from repro.lang.parser import parse_function
from repro.ir.printer import format_function

#: ``predicate(candidate) -> True`` when the failure still reproduces.
Predicate = Callable[[Function], bool]


@dataclass
class ReductionResult:
    """The shrunk function plus an audit trail of the search."""

    func: Function
    ir_text: str
    rounds: int = 0
    attempts: int = 0
    accepted: int = 0
    #: (strategy, description) of every accepted edit, in order.
    trail: list[tuple[str, str]] = field(default_factory=list)

    @property
    def blocks(self) -> int:
        return len(self.func)

    @property
    def statements(self) -> int:
        return self.func.statement_count()


def _size(func: Function) -> tuple[int, int, int]:
    """The well-founded measure each accepted edit must decrease."""
    var_operands = 0
    for block in func:
        for stmt in block.body:
            if isinstance(stmt, Assign) and isinstance(stmt.rhs, BinOp):
                var_operands += isinstance(stmt.rhs.left, Var)
                var_operands += isinstance(stmt.rhs.right, Var)
            elif isinstance(stmt, Assign) and isinstance(stmt.rhs, Load):
                var_operands += isinstance(stmt.rhs.index, Var)
            elif isinstance(stmt, Store):
                var_operands += isinstance(stmt.index, Var)
                var_operands += isinstance(stmt.value, Var)
    return (len(func), func.statement_count(), var_operands)


# ----------------------------------------------------------------------
# Candidate generators.  Each yields (description, candidate) pairs; the
# candidate is always a fresh clone, never the input.
# ----------------------------------------------------------------------
def _straighten_candidates(func: Function) -> Iterator[tuple[str, Function]]:
    for label, block in func.blocks.items():
        if not isinstance(block.terminator, CondJump):
            continue
        for target in (block.terminator.false_target,
                       block.terminator.true_target):
            candidate = func.clone()
            candidate.blocks[label].terminator = Jump(target)
            candidate.mark_cfg_mutated()
            remove_unreachable_blocks(candidate)
            yield f"straighten {label} -> {target}", candidate


def _drop_block_candidates(func: Function) -> Iterator[tuple[str, Function]]:
    for label, block in func.blocks.items():
        if label == func.entry:
            continue
        successors = [s for s in block.successors() if s != label]
        if not successors:
            continue  # a return block; straighten/drop-stmt shrink it
        for repl in dict.fromkeys(successors):  # unique, order-preserving
            candidate = func.clone()
            for other in candidate:
                if label in other.terminator.successors():
                    retarget(other.terminator, label, repl)
            candidate.remove_block(label)
            remove_unreachable_blocks(candidate)
            yield f"drop block {label} -> {repl}", candidate


def _inline_jump_candidates(func: Function) -> Iterator[tuple[str, Function]]:
    """Absorb a ``jump``-only edge: the predecessor takes over the
    target's body and terminator.  Shrinks (via the size guard) exactly
    when the target had that single predecessor and disappears."""
    from repro.ir.function import clone_statement, clone_terminator

    for label, block in func.blocks.items():
        term = block.terminator
        if not isinstance(term, Jump) or term.target == label:
            continue
        target = func.blocks[term.target]
        if target.phis:
            continue
        candidate = func.clone()
        merged = candidate.blocks[label]
        merged.body.extend(clone_statement(s) for s in target.body)
        merged.terminator = clone_terminator(target.terminator)
        candidate.mark_cfg_mutated()
        remove_unreachable_blocks(candidate)
        yield f"inline {term.target} into {label}", candidate


def _drop_store_candidates(func: Function) -> Iterator[tuple[str, Function]]:
    """Delete one store — one may-alias kill — per candidate."""
    for label, block in func.blocks.items():
        for idx in range(len(block.body) - 1, -1, -1):
            if not isinstance(block.body[idx], Store):
                continue
            candidate = func.clone()
            removed = candidate.blocks[label].body.pop(idx)
            candidate.mark_code_mutated()
            yield f"drop store {label}.body[{idx}] ({removed})", candidate


def _drop_stmt_candidates(func: Function) -> Iterator[tuple[str, Function]]:
    for label, block in func.blocks.items():
        for idx in range(len(block.body) - 1, -1, -1):
            candidate = func.clone()
            removed = candidate.blocks[label].body.pop(idx)
            candidate.mark_code_mutated()
            yield f"drop {label}.body[{idx}] ({removed})", candidate


def _constify_candidates(func: Function) -> Iterator[tuple[str, Function]]:
    for label, block in func.blocks.items():
        for idx, stmt in enumerate(block.body):
            if not (isinstance(stmt, Assign) and isinstance(stmt.rhs, BinOp)):
                continue
            for side in ("left", "right"):
                if not isinstance(getattr(stmt.rhs, side), Var):
                    continue
                candidate = func.clone()
                rhs = candidate.blocks[label].body[idx].rhs
                setattr(rhs, side, Const(1))
                candidate.mark_code_mutated()
                yield f"constify {label}.body[{idx}].{side}", candidate


def _constify_index_candidates(func: Function) -> Iterator[tuple[str, Function]]:
    """Replace a variable memory index with ``Const(0)`` (always in
    bounds — declared array lengths are >= 1), detaching the index
    dataflow and making the access class provably non-trapping."""
    for label, block in func.blocks.items():
        for idx, stmt in enumerate(block.body):
            if isinstance(stmt, Assign) and isinstance(stmt.rhs, Load):
                if not isinstance(stmt.rhs.index, Var):
                    continue
                candidate = func.clone()
                candidate.blocks[label].body[idx].rhs.index = Const(0)
                candidate.mark_code_mutated()
                yield f"constify-index {label}.body[{idx}] (load)", candidate
            elif isinstance(stmt, Store) and isinstance(stmt.index, Var):
                candidate = func.clone()
                candidate.blocks[label].body[idx].index = Const(0)
                candidate.mark_code_mutated()
                yield f"constify-index {label}.body[{idx}] (store)", candidate


#: Coarse-to-fine order: structural strategies first (they delete whole
#: regions per accepted edit), then statement- and operand-level polish.
#: drop-store runs before the generic statement drop: each accepted edit
#: removes an entire alias kill, which untangles memory failures fast.
STRATEGIES: tuple[tuple[str, Callable[[Function], Iterator]], ...] = (
    ("straighten", _straighten_candidates),
    ("drop-block", _drop_block_candidates),
    ("inline-jump", _inline_jump_candidates),
    ("drop-store", _drop_store_candidates),
    ("drop-stmt", _drop_stmt_candidates),
    ("constify", _constify_candidates),
    ("constify-index", _constify_index_candidates),
)


def _valid(candidate: Function) -> bool:
    try:
        verify_function(candidate)
    except VerificationError:
        return False
    return True


def reduce_function(
    func: Function,
    predicate: Predicate,
    *,
    max_rounds: int = 50,
    max_attempts: int = 20_000,
) -> ReductionResult:
    """Shrink *func* while *predicate* keeps returning True.

    The input is never mutated.  Raises :class:`ValueError` if the
    predicate rejects the *initial* function — a reducer pointed at a
    non-failure would otherwise happily shrink it to nothing.
    """
    current = func.clone()
    if not predicate(current):
        raise ValueError(
            "predicate does not hold on the unreduced function; "
            "nothing to shrink"
        )
    result = ReductionResult(func=current, ir_text="")
    for _ in range(max_rounds):
        result.rounds += 1
        progressed = False
        for strategy, generate in STRATEGIES:
            # Re-scan one strategy until it is exhausted on the current
            # function; each acceptance invalidates the old candidates.
            accepted_here = True
            while accepted_here and result.attempts < max_attempts:
                accepted_here = False
                for description, candidate in generate(current):
                    if result.attempts >= max_attempts:
                        break
                    if _size(candidate) >= _size(current):
                        continue  # not a shrink (e.g. nothing unreachable)
                    if not _valid(candidate):
                        continue
                    result.attempts += 1
                    if predicate(candidate):
                        current = candidate
                        result.accepted += 1
                        result.trail.append((strategy, description))
                        accepted_here = progressed = True
                        break
        if not progressed or result.attempts >= max_attempts:
            break

    result.func = current
    result.ir_text = format_function(current)
    reparsed = parse_function(result.ir_text)
    diffs = structural_diff(current, reparsed)
    if diffs:  # pragma: no cover - printer/parser round-trip is tested
        raise AssertionError(
            f"reduced function does not round-trip through the printer: "
            f"{diffs[:3]}"
        )
    return result
