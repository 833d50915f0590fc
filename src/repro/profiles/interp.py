"""Reference interpreter and profiler for the IR.

One interpreter serves four purposes:

1. **Semantics oracle** — the output trace + return value define program
   meaning; PRE transformations must preserve them exactly.
2. **Profiler** — node and edge frequencies for FDO, mirroring the paper's
   train-run instrumentation.
3. **Timer** — the weighted dynamic operation count (see
   :mod:`repro.ir.ops`) stands in for the paper's wall-clock seconds.
4. **Redundancy meter** — per lexical-expression dynamic evaluation
   counts, the exact quantity MC-SSAPRE's computational optimality theorem
   is about.

Works on SSA and non-SSA functions (phis are evaluated in parallel using
the incoming edge).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.ir import ops as op_tables
from repro.ir.function import Function
from repro.ir.instructions import (
    Assign,
    BinOp,
    CondJump,
    Jump,
    Load,
    Return,
    Store,
    UnaryOp,
)
from repro.ir.memory import initial_array
from repro.ir.values import Const, Operand, Var
from repro.profiles.profile import ExecutionProfile


class InterpreterError(Exception):
    """Raised on runtime errors (undefined variable, step overflow)."""


@dataclass
class RunResult:
    """Everything observed during one execution."""

    return_value: int | None
    output: list[int]
    profile: ExecutionProfile
    dynamic_cost: int
    expr_counts: dict[tuple, int] = field(default_factory=dict)
    steps: int = 0

    def observable(self) -> tuple:
        """The externally visible behaviour (for equivalence checks)."""
        return (self.return_value, tuple(self.output))


#: What two runs of one program must agree on, in order: (category,
#: field, view of a RunResult).  A differing observable is a wrong
#: answer (category ``compile``), a differing count a wrong profile
#: (``profile``).  The check driver's engine parity and the perf
#: suite's mismatch lists both read it.
RUN_FIELDS = (
    ("compile", "observables", RunResult.observable),
    ("profile", "node_freq", lambda run: dict(run.profile.node_freq)),
    ("profile", "edge_freq", lambda run: dict(run.profile.edge_freq)),
    ("profile", "expr_counts", lambda run: dict(run.expr_counts)),
    ("profile", "dynamic_cost", lambda run: run.dynamic_cost),
    ("profile", "steps", lambda run: run.steps),
)


def runresult_mismatches(a: RunResult, b: RunResult) -> list[str]:
    """The :data:`RUN_FIELDS` on which two runs disagree (empty = identical)."""
    return [name for _category, name, view in RUN_FIELDS if view(a) != view(b)]


def run_function(
    func: Function,
    args: list[int] | None = None,
    max_steps: int = 2_000_000,
) -> RunResult:
    """Execute *func* and collect profile + cost data.

    ``max_steps`` bounds the number of executed statements so runaway
    loops in generated programs fail fast instead of hanging the suite.
    """
    args = args or []
    if len(args) != len(func.params):
        raise InterpreterError(
            f"{func.name} expects {len(func.params)} args, got {len(args)}"
        )

    env: dict[Var, int] = {}
    for param, value in zip(func.params, args):
        env[param] = value
        # Non-SSA functions reference parameters by base name.
        env[param.base] = value

    # Array memory: deterministic initial contents per array symbol,
    # mutated in place by stores.  Arrays are not SSA values.
    memory: dict[str, list[int]] = {
        name: initial_array(name, length)
        for name, length in func.arrays.items()
    }

    profile = ExecutionProfile()
    output: list[int] = []
    expr_counts: Counter[tuple] = Counter()
    cost = 0
    steps = 0

    def read(operand: Operand) -> int:
        if isinstance(operand, Const):
            return operand.value
        try:
            return env[operand]
        except KeyError:
            raise InterpreterError(
                f"{func.name}: read of undefined variable {operand}"
            ) from None

    assert func.entry is not None
    label = func.entry
    prev_label: str | None = None
    return_value: int | None = None

    while True:
        block = func.blocks[label]
        # Hoisted step-budget check: the whole block (body + terminator)
        # executes or none of it does, so one comparison per block entry
        # raises on exactly the runs the per-statement check did.
        steps += len(block.body) + 1
        if steps > max_steps:
            raise InterpreterError(
                f"{func.name}: exceeded {max_steps} interpreted steps"
            )
        profile.node_freq[label] += 1
        if prev_label is not None:
            profile.edge_freq[(prev_label, label)] += 1

        if block.phis:
            if prev_label is None:
                raise InterpreterError("entry block must not contain phis")
            values = [read(phi.args[prev_label]) for phi in block.phis]
            for phi, value in zip(block.phis, values):
                env[phi.target] = value
            cost += op_tables.PHI_COST * len(block.phis)

        for stmt in block.body:
            if isinstance(stmt, Assign):
                rhs = stmt.rhs
                if isinstance(rhs, BinOp):
                    info = op_tables.BINARY_OPS[rhs.op]
                    env[stmt.target] = info.func(read(rhs.left), read(rhs.right))
                    cost += info.cost
                    expr_counts[rhs.class_key()] += 1
                elif isinstance(rhs, UnaryOp):
                    info = op_tables.UNARY_OPS[rhs.op]
                    env[stmt.target] = info.func(read(rhs.operand))
                    cost += info.cost
                    expr_counts[rhs.class_key()] += 1
                elif isinstance(rhs, Load):
                    cells = memory[rhs.array]
                    index = read(rhs.index)
                    # Non-integer indices (an fdiv result) trap exactly
                    # like out-of-range ones — same check as compiled.
                    if not (isinstance(index, int) and 0 <= index < len(cells)):
                        raise InterpreterError(
                            f"{func.name}: load index {index} out of bounds "
                            f"for array {rhs.array!r} of length {len(cells)}"
                        )
                    env[stmt.target] = cells[index]
                    cost += op_tables.LOAD_COST
                    expr_counts[rhs.class_key()] += 1
                else:
                    env[stmt.target] = read(rhs)
                    cost += op_tables.COPY_COST
            elif isinstance(stmt, Store):
                cells = memory[stmt.array]
                index = read(stmt.index)
                if not (isinstance(index, int) and 0 <= index < len(cells)):
                    raise InterpreterError(
                        f"{func.name}: store index {index} out of bounds "
                        f"for array {stmt.array!r} of length {len(cells)}"
                    )
                cells[index] = read(stmt.value)
                cost += op_tables.STORE_COST
            else:  # Output
                output.append(read(stmt.value))
                cost += op_tables.OUTPUT_COST

        term = block.terminator
        if isinstance(term, Return):
            return_value = None if term.value is None else read(term.value)
            break
        if isinstance(term, Jump):
            prev_label, label = label, term.target
        elif isinstance(term, CondJump):
            cost += op_tables.BRANCH_COST
            taken = read(term.cond) != 0
            prev_label, label = label, (
                term.true_target if taken else term.false_target
            )
        else:  # pragma: no cover - verifier prevents this
            raise InterpreterError(f"unknown terminator {term!r}")

    return RunResult(
        return_value=return_value,
        output=output,
        profile=profile,
        dynamic_cost=cost,
        expr_counts=expr_counts,
        steps=steps,
    )
