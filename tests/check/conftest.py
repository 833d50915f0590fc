"""Deliberately broken compile variants for exercising the harness.

Each is a :data:`repro.check.oracles.VariantFn` — ``(prepared_clone,
profile) -> Function`` — injected into the driver via ``extra_variants``.
They model real optimiser bug classes:

* :func:`premature_insertion` — a *misplaced PRE insertion*: the
  computation is hoisted to the entry block and the temp reused at the
  original site, ignoring that an operand may be redefined in between
  (stale value → semantic divergence);
* :func:`speculate_trapping` — hoists a conditionally executed
  ``div``/``mod`` into the entry block, exactly the speculation the
  safety guarantee forbids;
* :func:`identity_mc_ssapre` — registered *as* ``mc-ssapre``, performs no
  optimisation at all, so the optimality oracle must notice the counts
  no longer match MC-PRE;
* :func:`crashing_variant` / :func:`dangling_jump_variant` — compile-time
  crash and verifier-reject classification fodder;
* :func:`diverge_on` — a variant that returns a wrong value on one
  argument vector only, so a failure shows only on the run's own inputs.
"""

from __future__ import annotations

from repro.ir.function import Function
from repro.ir.instructions import Assign, BinOp, Jump, Return
from repro.ir.ops import is_trapping
from repro.ir.values import Const, Var


def _entry_defined(func: Function) -> set[str]:
    names = {p.name for p in func.params}
    names.update(v.name for v in func.entry_block.defined_vars())
    return names


def premature_insertion(func: Function, profile) -> Function:
    """Hoist the *last* entry-computable expression to the entry block.

    Every operand of the chosen site is defined in the entry block, so
    the program stays well-formed; but any redefinition between the entry
    and the original site makes the reused temp stale — a classic
    misplaced-insertion bug that only semantic differencing catches.
    """
    entry_defs = _entry_defined(func)
    site = None
    for label, block in func.blocks.items():
        if label == func.entry:
            continue
        for i, stmt in enumerate(block.body):
            if (
                isinstance(stmt, Assign)
                and isinstance(stmt.rhs, BinOp)
                and all(
                    not isinstance(op, Var) or op.name in entry_defs
                    for op in stmt.rhs.operands
                )
                and not stmt.target.name.startswith(("li", "lb", "lc", "c"))
            ):
                site = (label, i)  # keep scanning: the last site wins
    if site is None:
        return func
    label, i = site
    stmt = func.blocks[label].body[i]
    temp = func.fresh_temp("%pre")
    func.entry_block.body.append(
        Assign(temp, BinOp(stmt.rhs.op, stmt.rhs.left, stmt.rhs.right))
    )
    func.blocks[label].body[i] = Assign(stmt.target, temp)
    func.mark_code_mutated()
    return func


def speculate_trapping(func: Function, profile) -> Function:
    """Evaluate the first conditional trapping op unconditionally at entry.

    The temp is never used, and div/mod are total in this IR, so the
    program's observable behaviour is unchanged — only the safety oracle
    can object.
    """
    entry_defs = _entry_defined(func)
    for label, block in func.blocks.items():
        if label == func.entry:
            continue
        for stmt in block.body:
            if (
                isinstance(stmt, Assign)
                and isinstance(stmt.rhs, BinOp)
                and is_trapping(stmt.rhs.op)
                and all(
                    not isinstance(op, Var) or op.name in entry_defs
                    for op in stmt.rhs.operands
                )
            ):
                temp = func.fresh_temp("%spec")
                func.entry_block.body.append(
                    Assign(
                        temp,
                        BinOp(stmt.rhs.op, stmt.rhs.left, stmt.rhs.right),
                    )
                )
                func.mark_code_mutated()
                return func
    return func


def identity_mc_ssapre(func: Function, profile) -> Function:
    """No-op impostor: inject under the name ``mc-ssapre`` so the
    optimality oracle compares an unoptimised program against MC-PRE."""
    return func


def crashing_variant(func: Function, profile) -> Function:
    raise RuntimeError("deliberate compile-time crash")


def dangling_jump_variant(func: Function, profile) -> Function:
    func.entry_block.terminator = Jump("no-such-block")
    func.mark_cfg_mutated()
    return func


def diverge_on(args: list[int]):
    """A variant that adds 1 to every returned value when the first
    parameter equals ``args[0]``: wrong on that input only."""

    def variant(func: Function, profile) -> Function:
        for block in func.blocks.values():
            ret = block.terminator
            if isinstance(ret, Return) and ret.value is not None:
                hit = func.fresh_temp("%hit")
                value = func.fresh_temp("%ret")
                block.body.append(
                    Assign(hit, BinOp("eq", func.params[0], Const(args[0])))
                )
                block.body.append(Assign(value, BinOp("add", ret.value, hit)))
                block.terminator = Return(value)
        func.mark_code_mutated()
        return func

    return variant
