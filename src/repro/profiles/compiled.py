"""Compiled execution back end: each IR function lowered to one Python function.

The reference interpreter (:mod:`repro.profiles.interp`) re-dispatches on
instruction class and re-hashes :class:`~repro.ir.values.Var` keys on every
executed statement.  Every experiment in this reproduction — the paper's
tables and figures, the ``repro.check`` oracles, the FDO train/ref runs,
every served request — bottoms out in that loop, so this module lowers a
:class:`~repro.ir.function.Function` **once** into the source of a single
Python function and executes that instead.  A block entry costs no Python
call at all:

* variables are numbered into register slots that become Python locals
  (``r7``), parameters become arguments, arrays become local lists;
  constants are inlined as literals and the simple operators as Python
  expressions (``(r3 + r4)``), the rest call their handler directly;
* reducible control flow becomes structured code.  Blocks are placed
  along the dominator tree: a block with a single incoming edge is
  emitted inline in its predecessor's branch arm, a join after the
  ``if`` that splits to it, a natural loop as ``while True:`` (back
  edges are ``continue``, the loop's first exit is ``break``) with the
  blocks it exits to placed after the loop;
* every edge that structure cannot express — an irreducible CFG, a
  second exit out of a loop, an exit out of two loops at once, a nest
  past Python's limits of 20 statically nested loops and 100
  indentation levels, or blocks placed inside one another deeper than
  the lowering recurses — targets a *region root*.  Regions are dispatched
  by a block-state loop in the same frame (``while True: if b == 0:
  ...``); such an edge sets ``b`` and leaves through ``break``/
  ``continue``.  A structured function has no state loop at all;
* phis become parallel moves at the end of the predecessor's edge.

Profile, cost and redundancy data are *derived* rather than recorded.
In full counting only the *chords* count: the CFG plus a virtual node ⊤
(edges ⊤ → entry and return block → ⊤) gets a maximum-weight spanning
tree, each edge weighted by the loop depth of its shallower end, and
only the edges off the tree carry a local counter, bumped in the edge's
code (Knuth; Ball–Larus; Chen et al., arXiv 2208.13907).  Every cycle
holds a chord, so a loop pays about one increment per iteration.  An
exit chord needs no counter at all — its ``return`` hands back 1 — and
⊤ → entry is the constant 1.  A generated ``_derive`` then peels the
tree leaves-first, one integer assignment per tree edge by flow
conservation, and sums each block's in-edges.  Each statement of a
block executes exactly once per block entry, so ``dynamic_cost`` and
``expr_counts`` are linear in the block counts.  The step budget is one
local sum, checked lazily — at every loop header, at the entry of any
block that can raise, before any guarded phi move, at each dispatch,
and once after the run — which is exact because no loop and no trap
lies between the block entry where the reference interpreter would
raise and the next check.  A structured loop header's steps are added
with the preheader's and each back edge's, so an iteration pays one
add.  The result is a :class:`~repro.profiles.interp.RunResult`
bit-identical to the reference interpreter's (same ``dynamic_cost``,
``expr_counts``, ``profile``, ``steps``, observable behaviour, and the
same :class:`~repro.profiles.interp.InterpreterError` messages), which
``tests/profiles/test_compiled.py`` pins over the generator corpus and
the hard CFG shapes.

Reads that might observe an undefined variable are found by a
definite-assignment dataflow pass at compile time; only those reads pay a
sentinel check, so verified programs execute guard-free.

Use :data:`~repro.passes.analyses.COMPILED_ANALYSIS` (or
:func:`run_compiled` with a cache) to memoise compilation on a
pass-manager :class:`~repro.passes.cache.AnalysisCache`: the entry is
keyed by the function's code generation, so repeated runs of an
unmutated function compile exactly once.
"""

from __future__ import annotations

import marshal
import types
from collections import Counter
from dataclasses import dataclass, field
from importlib.util import MAGIC_NUMBER

from repro.analysis.dominators import DominatorTree
from repro.analysis.loops import LoopForest
from repro.ir import ops as op_tables
from repro.ir.cfg import CFG
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
from repro.profiles.interp import InterpreterError, RunResult
from repro.profiles.profile import ExecutionProfile

#: Default step budget, matching :func:`repro.profiles.interp.run_function`.
DEFAULT_MAX_STEPS = 2_000_000

#: Structured loops nested inside one region.  CPython rejects more than
#: 20 statically nested blocks; the region's dispatch loop takes one.
_MAX_LOOPS = 18
#: Indentation depth at which a block becomes a region root instead
#: (the tokenizer rejects 100 levels; guards nest two below a block).
_MAX_INDENT = 90
#: Blocks emitted inside one another's code (inline arms, jump chains)
#: before one becomes a region root: bounds the lowering's recursion.
_MAX_NESTED = 100

#: Sentinel preset in every local whose read is guarded: the generated
#: guards test ``value is _U``.
_UNDEF = object()

#: Operators lowered to an inline expression with exactly the semantics
#: of their :data:`repro.ir.ops` handler; the rest call the handler.
_INLINE_BINARY = {
    "add": "({} + {})",
    "fadd": "({} + {})",
    "sub": "({} - {})",
    "mul": "({} * {})",
    "fmul": "({} * {})",
    "and": "({} & {})",
    "or": "({} | {})",
    "xor": "({} ^ {})",
    "eq": "(1 if {} == {} else 0)",
    "ne": "(1 if {} != {} else 0)",
    "lt": "(1 if {} < {} else 0)",
    "le": "(1 if {} <= {} else 0)",
    "gt": "(1 if {} > {} else 0)",
    "ge": "(1 if {} >= {} else 0)",
    "min": "min({}, {})",
    "max": "max({}, {})",
}
_INLINE_UNARY = {"neg": "(-{})", "not": "(~{})", "abs": "abs({})"}


@dataclass
class CompiledProgram:
    """A function lowered to the source of one Python function."""

    name: str
    n_params: int
    labels: list[str]
    entry_has_phis: bool
    #: Static edge table in ``_derive`` order: its (src, dst) label pair.
    edge_pairs: list[tuple[str, str]]
    #: Per block: weighted dynamic cost charged per entry.
    cost_per_block: list[int]
    #: Per block: ``(class_key(), multiplicity)`` of its operator
    #: applications, in first-occurrence order.
    expr_sites: list[list[tuple[tuple, int]]]
    #: Declared arrays as ``(name, length)``: each run materialises the
    #: deterministic initial contents, so runs never share (and never
    #: re-observe) mutated memory.
    arrays: list[tuple[str, int]] = field(default_factory=list, repr=False)
    #: Generated Python source defining ``_run`` and ``_derive``.
    #: Together with :attr:`op_keys` and :attr:`messages` it is all
    #: :meth:`_load` needs to regenerate the functions, so it is
    #: the portable truth a pickle carries next to the bytecode (see
    #: "pickling" below; the artifact cache of :mod:`repro.serve.store`
    #: relies on this).
    source: str = field(default="", repr=False)
    #: Operator-table keys ("b:div" / "u:sqrti") of the called handlers,
    #: in ``_f<k>`` index order.
    op_keys: list[str] = field(default_factory=list, repr=False)
    #: Interned error messages referenced by the generated guards.
    messages: list[str] = field(default_factory=list, repr=False)
    #: Optional live-profiling hook: called with the derived node-
    #: frequency :class:`~collections.Counter` after every successful
    #: run.  Costs one ``is not None`` test per run when unset.  The
    #: adaptation tier (:mod:`repro.serve.adapt`) attaches its fold here
    #: so execution keeps feeding the live profile no matter which code
    #: path executes the program.  Never pickled: a hook is runtime
    #: wiring, not artifact content.
    profile_hook: object = field(default=None, repr=False, compare=False)
    #: ``_run(max_steps, out_append, *args, *arrays) -> (value, steps,
    #: counters)``, generated from :attr:`source`.  Pickled as its code
    #: object only (see "pickling" below).
    function: object = field(default=None, repr=False, compare=False)
    #: ``_derive(*chord counts) -> (block counts, edge counts)``.
    #: Pickled like :attr:`function`.
    derive: object = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.function is None:
            self._load()

    def _namespace(self) -> dict:
        """The globals the generated functions run in."""
        name = self.name

        def budget(limit: int) -> InterpreterError:
            return InterpreterError(
                f"{name}: exceeded {limit} interpreted steps"
            )

        namespace = {
            "_U": _UNDEF,
            "_IE": InterpreterError,
            "_B": budget,
            "_MSGS": self.messages,
        }
        for k, key in enumerate(self.op_keys):
            namespace[f"_f{k}"] = _resolve_op(key)
        return namespace

    def _load(self) -> None:
        """(Re)generate :attr:`function` and :attr:`derive` from source."""
        namespace = self._namespace()
        code = compile(self.source, f"<compiled {self.name}>", "exec")
        exec(code, namespace)  # noqa: S102 - self-generated trusted source
        self.function = namespace["_run"]
        self.derive = namespace["_derive"]

    @property
    def chords(self) -> list[int]:
        """``_derive``-order indices of the counted edges: its parameters.

        A real chord indexes :attr:`edge_pairs`; an exit chord (return
        block → ⊤, whose count the ``return`` hands back) is numbered
        past them.
        """
        code = self.derive.__code__
        return [int(name[2:]) for name in code.co_varnames[: code.co_argcount]]

    # -- pickling ------------------------------------------------------
    # Functions do not pickle, but their code objects marshal.  A pickle
    # carries the marshalled code of ``_run`` and ``_derive`` tagged with
    # the interpreter's bytecode magic number, so unpickling under the
    # same interpreter rebuilds both functions over a fresh namespace
    # without compiling (unmarshalling costs a small fraction of compile()).
    # Under another interpreter, or if the bytes do not unmarshal, the
    # functions are regenerated from :attr:`source` instead.  Either way
    # the live program holds no copy of the bytes or code objects beyond
    # its two functions.  Bytecode is executable: whoever can write a
    # pickle can run code here, so a pickle is exactly as trusted as the
    # code that wrote it (the artifact store checks a digest on read).
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["function"] = None
        state["derive"] = None
        state["profile_hook"] = None
        state["bytecode"] = (
            MAGIC_NUMBER,
            marshal.dumps((self.function.__code__, self.derive.__code__)),
        )
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        magic, blob = self.__dict__.pop("bytecode", (None, None))
        if magic == MAGIC_NUMBER:
            try:
                run_code, derive_code = marshal.loads(blob)
            except (EOFError, ValueError, TypeError):
                pass  # unreadable bytecode: regenerate from source
            else:
                namespace = self._namespace()
                self.function = types.FunctionType(run_code, namespace)
                self.derive = types.FunctionType(derive_code, namespace)
                return
        self._load()

    def run(
        self,
        args: list[int] | None = None,
        max_steps: int = DEFAULT_MAX_STEPS,
    ) -> RunResult:
        """Execute the program; mirrors ``run_function`` exactly."""
        args = args or []
        if len(args) != self.n_params:
            raise InterpreterError(
                f"{self.name} expects {self.n_params} args, got {len(args)}"
            )
        if self.entry_has_phis:
            raise InterpreterError("entry block must not contain phis")

        out: list[int] = []
        value, steps, counters = self.function(
            max_steps,
            out.append,
            *args,
            *[initial_array(name, length) for name, length in self.arrays],
        )
        if steps > max_steps:
            raise InterpreterError(
                f"{self.name}: exceeded {max_steps} interpreted steps"
            )

        nodes, edges = self.derive(*counters)
        node_freq: Counter[str] = Counter()
        for label, count in zip(self.labels, nodes):
            if count:
                node_freq[label] = count
        edge_freq: Counter[tuple[str, str]] = Counter()
        for pair, count in zip(self.edge_pairs, edges):
            if count:
                edge_freq[pair] += count
        profile = ExecutionProfile(node_freq=node_freq, edge_freq=edge_freq)

        cost = 0
        expr_counts: dict[tuple, int] = {}
        for count, block_cost, sites in zip(
            nodes, self.cost_per_block, self.expr_sites
        ):
            if not count:
                continue
            cost += count * block_cost
            for key, times in sites:
                expr_counts[key] = expr_counts.get(key, 0) + count * times

        if self.profile_hook is not None:
            self.profile_hook(node_freq)

        return RunResult(
            return_value=value,
            output=out,
            profile=profile,
            dynamic_cost=cost,
            expr_counts=expr_counts,
            steps=steps,
        )


def _resolve_op(key: str):
    """The operator handler behind a ``"b:div"`` / ``"u:sqrti"`` key."""
    kind, _, name = key.partition(":")
    table = op_tables.BINARY_OPS if kind == "b" else op_tables.UNARY_OPS
    return table[name].func


def _tuple(items: list[str]) -> str:
    return "(" + "".join(f"{item}, " for item in items) + ")"


def _sum(terms: list[str]) -> str:
    if not terms:
        return "0"
    return terms[0] if len(terms) == 1 else f"({' + '.join(terms)})"


def _literal(value) -> str:
    text = repr(value)
    return f"({text})" if text.startswith("-") else text


class _Loop:
    """An open ``while True:`` of the structured code."""

    __slots__ = ("header", "brk", "escaped")

    def __init__(self, header: str, brk: str | None) -> None:
        self.header = header
        #: The block ``break`` reaches (code right after the loop).
        self.brk = brk
        #: Whether a region escape leaves through this loop.
        self.escaped = False


class _Codegen:
    """Lowers one function to Python source + metadata tables."""

    def __init__(self, func: Function) -> None:
        assert func.entry is not None
        self.func = func
        self.labels = list(func.blocks)
        self.slots: dict[Var, int] = {}
        self.op_index: dict[str, int] = {}
        self.arrays = {name: f"m{i}" for i, name in enumerate(func.arrays)}
        self._analyse_cfg()
        self.in_sets = self._definitely_assigned()

    # -- tables --------------------------------------------------------
    def slot(self, var: Var) -> int:
        index = self.slots.get(var)
        if index is None:
            index = len(self.slots)
            self.slots[var] = index
        return index

    def op(self, kind: str, name: str) -> str:
        key = f"{kind}:{name}"
        index = self.op_index.get(key)
        if index is None:
            index = len(self.op_index)
            self.op_index[key] = index
        return f"_f{index}"

    def message(self, text: str) -> int:
        self.messages.append(text)
        return len(self.messages) - 1

    # -- control-flow analysis ----------------------------------------
    def _analyse_cfg(self) -> None:
        func = self.func
        cfg = CFG(func)
        dom = DominatorTree(cfg)
        self.dom = dom
        self.rpo = {label: i for i, label in enumerate(dom.rpo)}
        reach = self.rpo
        #: Targets of retreating edges that are no back edge
        #: (irreducible control flow): always region roots.
        self.irreducible: set[str] = set()
        self.forward_in: Counter[str] = Counter()
        for label in dom.rpo:
            for succ in func.blocks[label].terminator.successors():
                if dom.dominates(succ, label):
                    continue  # back edge
                if reach[succ] <= reach[label]:
                    self.irreducible.add(succ)
                self.forward_in[succ] += 1

        forest = LoopForest(cfg, dom)
        #: Loop headers, each loop's parent header, each block's
        #: innermost containing loop header (None: not in a loop).
        self.parent = {
            h: (loop.parent.header if loop.parent is not None else None)
            for h, loop in forest.loops.items()
        }
        by_size = sorted(forest.loops.values(), key=lambda lp: -len(lp.blocks))
        self.innermost: dict[str, str | None] = dict.fromkeys(reach)
        for loop in by_size:
            for label in loop.blocks:
                if label in reach:
                    self.innermost[label] = loop.header
        header_depth = {h: loop.depth for h, loop in forest.loops.items()}
        #: Loop-nesting depth of each reachable block (0: in no loop).
        self.depth = {
            label: header_depth.get(header, 0)
            for label, header in self.innermost.items()
        }

    def _place(self, roots: set[str]) -> None:
        """Assign every non-root block its place in the structured code.

        A dominator-tree child of ``x`` in the same loop as ``x`` goes
        inline in ``x``'s branch arm (one incoming edge) or after
        ``x``'s code (a join); a child outside ``x``'s loop goes after
        the ``while`` of the outermost loop it exits.  A child that
        fits nowhere becomes a region root.
        """
        self.inline: set[str] = set()
        self.follows: dict[str, list[str]] = {}
        self.outside: dict[str, list[str]] = {}
        for x in self.dom.rpo:
            own = self.innermost[x]
            for child in self.dom.children[x]:
                if child in roots:
                    continue
                home = (
                    self.parent[child] if child in self.parent
                    else self.innermost[child]
                )
                if home == own:
                    if self.forward_in[child] == 1:
                        self.inline.add(child)
                    else:
                        self.follows.setdefault(x, []).append(child)
                    continue
                loop = own
                while loop is not None and self.parent[loop] != home:
                    loop = self.parent[loop]
                if loop is None:
                    roots.add(child)
                else:
                    self.outside.setdefault(loop, []).append(child)
        for items in self.outside.values():
            items.sort(key=self.rpo.__getitem__)

    # -- definite assignment ------------------------------------------
    def _definitely_assigned(self) -> dict[str, set[int] | None]:
        """Slots definitely written on every path to each block's entry.

        ``None`` means "all slots" (the top element; kept for blocks the
        dataflow never reaches, which also never execute).
        """
        func = self.func
        entry_in: set[int] = set()
        for param in func.params:
            entry_in.add(self.slot(param))
            entry_in.add(self.slot(param.base))

        defs: dict[str, set[int]] = {}
        preds: dict[str, list[str]] = {label: [] for label in func.blocks}
        for label, block in func.blocks.items():
            block_defs = set()
            for phi in block.phis:
                block_defs.add(self.slot(phi.target))
            for stmt in block.body:
                if isinstance(stmt, Assign):
                    block_defs.add(self.slot(stmt.target))
            defs[label] = block_defs
            for succ in block.terminator.successors():
                if succ in preds:
                    preds[succ].append(label)

        in_sets: dict[str, set[int] | None] = {
            label: None for label in func.blocks
        }
        in_sets[func.entry] = entry_in
        # Out-sets of the blocks reached so far; a sweep in reverse
        # postorder sees every forward predecessor's final set.
        outs = {func.entry: entry_in | defs[func.entry]}
        order = self.dom.rpo[1:]
        changed = True
        while changed:
            changed = False
            for label in order:
                meet: set[int] | None = None
                for pred in preds[label]:
                    pred_out = outs.get(pred)
                    if pred_out is not None:
                        meet = pred_out if meet is None else meet & pred_out
                if meet is not None and meet != in_sets[label]:
                    in_sets[label] = meet
                    outs[label] = meet | defs[label]
                    changed = True
        return in_sets

    # -- counting -------------------------------------------------------
    def _plan_chords(self) -> None:
        """Choose the counted edges: the chords of a spanning tree.

        The reachable CFG is augmented with a virtual node ⊤, an edge
        ⊤ → entry carrying the run and an edge ⊤ ← b for each return
        block b, so a successful run is a circulation.  Kruskal's
        algorithm keeps a maximum-weight spanning tree, weighting each
        edge by the loop depth of its shallower end (ties in ``_derive``
        edge order, the exit edges last), so every cycle — every loop —
        pays for one chord, placed as shallow as the cycle allows.  Only
        the chords are counted; ⊤ → entry is the constant 1 (one run).
        """
        func = self.func
        reach = self.rpo
        #: ``_derive``-order edge indices of each block's terminator arms.
        self.edge_ids: dict[str, range] = {}
        #: Augmented edges: the real ones in ``_derive`` order, then one
        #: ``(b, None)`` per reachable return block b.
        edges: list[tuple[str, str | None]] = []
        for label in self.labels:
            succs = func.blocks[label].terminator.successors()
            self.edge_ids[label] = range(len(edges), len(edges) + len(succs))
            edges.extend((label, succ) for succ in succs)
        n_real = len(edges)
        depth = self.depth
        ranked = [
            (-min(depth[src], depth[dst]), k)
            for k, (src, dst) in enumerate(edges)
            if src in reach
        ]
        for label in self.dom.rpo:
            if isinstance(func.blocks[label].terminator, Return):
                ranked.append((0, len(edges)))
                edges.append((label, None))
        ranked.sort()

        leader: dict[str | None, str | None] = {label: label for label in reach}
        leader[None] = None
        tree: list[int] = []
        chords: list[int] = []
        for _weight, k in ranked:
            a, b = edges[k]
            while leader[a] != a:
                leader[a] = a = leader[leader[a]]
            while leader[b] != b:
                leader[b] = b = leader[leader[b]]
            if a == b:
                chords.append(k)
            else:
                leader[a] = b
                tree.append(k)
        chords.sort()  # ``_derive``'s parameters: real edges first
        #: Counter local of each counted real edge.  Exit chords need no
        #: local (a run leaves through one exit, once), so each ``return``
        #: hands back the constants 1 / 0 in their place.
        self.chord_counter = {k: f"_e{k}" for k in chords if k < n_real}
        #: The return block of each exit chord, in ``_derive`` order.
        self.exit_chords = [edges[k][0] for k in chords if k >= n_real]
        self.derive_lines = self._derive_source(edges, n_real, tree, chords)

    def _returned(self, label: str) -> str:
        """The counters tuple a ``return`` from *label* hands back."""
        return _tuple([
            *self.chord_counter.values(),
            *("1" if block == label else "0" for block in self.exit_chords),
        ])

    def _derive_source(
        self,
        edges: list[tuple[str, str | None]],
        n_real: int,
        tree: list[int],
        chords: list[int],
    ) -> list[str]:
        """``_derive``: every edge and block count from the chord counts.

        Peeling the spanning tree leaves-first from ⊤, each tree edge's
        flow is the one unknown term of its lower end's conservation
        equation (in-flow = out-flow), so one assignment per tree edge
        yields every flow; a block's count is its in-flow (plus the run,
        for the entry).
        """
        names = [f"_e{k}" for k in range(len(edges))]
        reach = self.rpo
        entry = self.func.entry
        # In- and out-flow terms per node (⊤ is None), the run included.
        ins: dict[str | None, list[str]] = {label: [] for label in reach}
        outs: dict[str | None, list[str]] = {label: [] for label in reach}
        adjacent: dict[str | None, list[int]] = {label: [] for label in reach}
        ins[None], adjacent[None] = [], []
        ins[entry].append("1")
        for k, (src, dst) in enumerate(edges):
            if src in reach:
                ins[dst].append(names[k])
                outs[src].append(names[k])
        for k in tree:
            src, dst = edges[k]
            adjacent[src].append(k)
            adjacent[dst].append(k)

        root = None if adjacent[None] else entry
        order: list[tuple[str | None, int]] = []
        seen = {root}
        frontier = [root]
        while frontier:
            node = frontier.pop()
            for k in adjacent[node]:
                src, dst = edges[k]
                other = dst if src == node else src
                if other not in seen:
                    seen.add(other)
                    order.append((other, k))
                    frontier.append(other)

        lines = [f"def _derive({', '.join(names[k] for k in chords)}):"]
        for node, k in reversed(order):
            dst = edges[k][1]
            if dst is None:
                continue  # an exit edge's flow is needed by no count
            name = names[k]
            flow_in = [t for t in ins[node] if t != name]
            flow_out = [t for t in outs[node] if t != name]
            if dst == node:
                flow_in, flow_out = flow_out, flow_in
            expr = _sum(flow_in)
            if flow_out:
                expr = f"{expr} - {_sum(flow_out)}"
            lines.append(f" {name} = {expr}")

        nodes = [_sum(ins[label]) if label in reach else "0" for label in self.labels]
        real = [
            names[k] if edges[k][0] in reach else "0" for k in range(n_real)
        ]
        lines.append(f" return {_tuple(nodes)}, {_tuple(real)}")
        return lines

    # -- expression lowering ------------------------------------------
    def _read(
        self, operand: Operand, defined: set[int], out: list[str], ind: str
    ) -> str:
        """The Python expression reading *operand*; may emit a guard."""
        if isinstance(operand, Const):
            return _literal(operand.value)
        index = self.slot(operand)
        name = f"r{index}"
        if index not in defined:
            self.guarded.add(index)
            self.traps = True
            msg = self.message(
                f"{self.func.name}: read of undefined variable {operand}"
            )
            out.append(f"{ind}if {name} is _U:")
            out.append(f"{ind} raise _IE(_MSGS[{msg}])")
            # Past the guard this slot is proven defined on this path.
            defined.add(index)
        return name

    def _memory_cell(
        self,
        kind: str,
        array: str,
        index: Operand,
        defined: set[int],
        out: list[str],
        ind: str,
    ) -> str:
        """The Python lvalue/rvalue ``m<k>[idx]`` for a memory access.

        Emits the bounds guard matching the reference interpreter
        byte-for-byte (the ``%s`` template formats the runtime index; the
        array name and length are baked in at compile time).  A constant
        index already inside the declared bounds is proven safe here, so
        it indexes directly with no guard — the compiled twin of the
        ``load_in_bounds`` refinement the optimizers use.
        """
        cells = self.arrays[array]
        length = self.func.arrays[array]
        if (
            isinstance(index, Const)
            and isinstance(index.value, int)
            and not isinstance(index.value, bool)
            and 0 <= index.value < length
        ):
            return f"{cells}[{index.value!r}]"
        expr = self._read(index, defined, out, ind)
        self.traps = True
        name = self.func.name.replace("%", "%%")
        shown = repr(array).replace("%", "%%")
        msg = self.message(
            f"{name}: {kind} index %s out of bounds "
            f"for array {shown} of length {length}"
        )
        out.append(
            f"{ind}if not (isinstance({expr}, int) and 0 <= {expr} < {length}):"
        )
        out.append(f"{ind} raise _IE(_MSGS[{msg}] % ({expr},))")
        return f"{cells}[{expr}]"

    def _statements(self, label: str, defined: set[int], ind: str) -> list[str]:
        """A block's body (plus its terminator's operand read) as lines."""
        out: list[str] = []
        for stmt in self.func.blocks[label].body:
            if isinstance(stmt, Assign):
                rhs = stmt.rhs
                if isinstance(rhs, BinOp):
                    left = self._read(rhs.left, defined, out, ind)
                    right = self._read(rhs.right, defined, out, ind)
                    template = _INLINE_BINARY.get(rhs.op)
                    if template is not None:
                        expr = template.format(left, right)
                    else:
                        expr = f"{self.op('b', rhs.op)}({left}, {right})"
                elif isinstance(rhs, UnaryOp):
                    operand = self._read(rhs.operand, defined, out, ind)
                    template = _INLINE_UNARY.get(rhs.op)
                    if template is not None:
                        expr = template.format(operand)
                    else:
                        expr = f"{self.op('u', rhs.op)}({operand})"
                elif isinstance(rhs, Load):
                    expr = self._memory_cell(
                        "load", rhs.array, rhs.index, defined, out, ind
                    )
                else:
                    expr = self._read(rhs, defined, out, ind)
                target = self.slot(stmt.target)
                out.append(f"{ind}r{target} = {expr}")
                defined.add(target)
            elif isinstance(stmt, Store):
                # Mirrors the interpreter's evaluation order exactly:
                # index read, bounds check, then the value read.
                cell = self._memory_cell(
                    "store", stmt.array, stmt.index, defined, out, ind
                )
                value = self._read(stmt.value, defined, out, ind)
                out.append(f"{ind}{cell} = {value}")
            else:  # Output
                value = self._read(stmt.value, defined, out, ind)
                out.append(f"{ind}_oa({value})")
        return out

    def _phi_moves(
        self, pred: str, succ: str, defined: set[int], ind: str
    ) -> tuple[list[str], bool]:
        """Parallel phi assignment along (pred, succ); whether it guards."""
        phis = self.func.blocks[succ].phis
        if not phis:
            return [], False
        traps, self.traps = self.traps, False
        out: list[str] = []
        values = [self._read(phi.args[pred], defined, out, ind) for phi in phis]
        targets = [f"r{self.slot(phi.target)}" for phi in phis]
        out.append(f"{ind}{', '.join(targets)} = {', '.join(values)}")
        guarded, self.traps = self.traps, traps
        return out, guarded

    # -- structured emission -------------------------------------------
    def _flush(self, out: list[str], ind: str) -> None:
        if self.pending:
            out.append(f"{ind}s += {self.pending}")
            self.pending = 0

    def _check(self, out: list[str], ind: str, ahead: int = 0) -> None:
        self._flush(out, ind)
        bound = f"s + {ahead}" if ahead else "s"
        out.append(f"{ind}if {bound} > _M:")
        out.append(f"{ind} raise _B(_M)")

    def _escape(self, target: str, loops: list[_Loop], out, ind: str) -> None:
        self._flush(out, ind)
        out.append(f"{ind}b = {self.region.get(target, -1)}")
        if loops:
            loops[-1].escaped = True
            out.append(f"{ind}break")
        else:
            out.append(f"{ind}continue")

    def _edge(self, pred, succ, edge, defined, depth, fall, loops, out) -> None:
        """Transfer control along edge *edge*, (pred, succ): count it if
        it is a chord, then the phi moves."""
        ind = " " * depth
        counter = self.chord_counter.get(edge)
        if counter is not None:
            out.append(f"{ind}{counter} += 1")
        # A back edge to a structured loop header adds the header's steps
        # with its own (as the preheader does), so an iteration pays one
        # add; a region-dispatched header adds them itself.
        folded = (
            succ in self.parent
            and succ not in self.roots
            and self.dom.dominates(succ, pred)
        )
        if folded:
            self.pending += self.weight[succ]
        moves, guarded = self._phi_moves(pred, succ, set(defined), ind)
        if guarded:
            # The reference interpreter checks the budget on entering
            # *succ*, before reading its phi arguments.
            self._check(out, ind, 0 if folded else self.weight[succ])
        out.extend(moves)
        top = loops[-1] if loops else None
        if succ in self.roots:
            if top is not None and top.header == succ:
                self._flush(out, ind)
                out.append(f"{ind}continue")
            else:
                self._escape(succ, loops, out, ind)
        elif succ in self.inline and self.dom.idom[succ] == pred:
            self._tree(succ, depth, fall, loops, out)
        elif succ == fall:
            self._flush(out, ind)
        elif top is not None and succ == top.header:
            self._flush(out, ind)
            out.append(f"{ind}continue")
        elif top is not None and succ == top.brk:
            self._flush(out, ind)
            out.append(f"{ind}break")
        else:
            self.new_roots.add(succ)
            self._escape(succ, loops, out, ind)

    def _block(self, label, depth, fall, loops, out, header=False) -> None:
        """One block's code: count, steps, body, terminator."""
        self.emitted.append(label)
        ind = " " * depth
        block = self.func.blocks[label]
        initial = self.in_sets[label]
        defined = set(self.slots.values()) if initial is None else set(initial)
        for phi in block.phis:
            defined.add(self.slot(phi.target))
        self.traps = False
        body = self._statements(label, defined, ind)
        term = block.terminator
        if isinstance(term, Return):
            value = (
                "None" if term.value is None
                else self._read(term.value, defined, body, ind)
            )
        elif isinstance(term, CondJump):
            cond = self._read(term.cond, defined, body, ind)

        if not header or label in self.roots:
            # A structured header's steps were added on the way in.
            self.pending += self.weight[label]
        if header or self.traps:
            self._check(out, ind)
        out.extend(body)

        arms = self.edge_ids[label]
        if isinstance(term, Return):
            steps = f"s + {self.pending}" if self.pending else "s"
            self.pending = 0
            out.append(f"{ind}return {value}, {steps}, {self._returned(label)}")
        elif isinstance(term, Jump):
            self._edge(
                label, term.target, arms[0], defined, depth, fall, loops, out
            )
        else:
            pending = self.pending
            taken: list[str] = []
            self._edge(
                label, term.true_target, arms[0], defined, depth + 1, fall,
                loops, taken,
            )
            self.pending = pending
            other: list[str] = []
            self._edge(
                label, term.false_target, arms[1], defined, depth + 1, fall,
                loops, other,
            )
            self.pending = 0
            if taken and other:
                out.append(f"{ind}if {cond} != 0:")
                out.extend(taken)
                out.append(f"{ind}else:")
                out.extend(other)
            elif taken:
                out.append(f"{ind}if {cond} != 0:")
                out.extend(taken)
            elif other:
                out.append(f"{ind}if {cond} == 0:")
                out.extend(other)

    def _tree(self, label, depth, fall, loops, out) -> None:
        """A block, the joins it dominates and, for a header, its loop."""
        ind = " " * depth
        is_header = label in self.parent
        if (
            depth > _MAX_INDENT
            or self.nested >= _MAX_NESTED
            or (is_header and len(loops) >= _MAX_LOOPS)
        ):
            self.new_roots.add(label)
            self._escape(label, loops, out, ind)
            return
        self.nested += 1
        follows = [c for c in self.follows.get(label, ()) if c not in self.roots]
        if is_header:
            self._loop(label, follows, depth, fall, loops, out)
        else:
            self._block(label, depth, follows[0] if follows else fall, loops, out)
            self._items(follows, depth, fall, loops, out)
        self.nested -= 1

    def _loop(self, label, follows, depth, fall, loops, out) -> None:
        """A loop header's ``while True:`` and the blocks after it."""
        ind = " " * depth
        outside = [c for c in self.outside.get(label, ()) if c not in self.roots]
        loop = _Loop(label, outside[0] if outside else fall)
        if label not in self.roots:
            self.pending += self.weight[label]
        self._flush(out, ind)
        out.append(f"{ind}while True:")
        loops.append(loop)
        self._block(
            label, depth + 1, follows[0] if follows else label, loops, out,
            header=True,
        )
        self._items(follows, depth + 1, label, loops, out)
        loops.pop()
        self.pending = 0
        if loop.escaped:
            out.append(f"{ind}if b >= 0:")
            if loops:
                loops[-1].escaped = True
                out.append(f"{ind} break")
            else:
                out.append(f"{ind} continue")
        self._items(outside, depth, fall, loops, out)

    def _items(self, items, depth, fall, loops, out) -> None:
        """Blocks placed one after another, each falling into the next."""
        for k, label in enumerate(items):
            self.pending = 0
            nxt = items[k + 1] if k + 1 < len(items) else fall
            self._tree(label, depth, nxt, loops, out)

    def _emit(self, roots: set[str]) -> list[str]:
        """One emission pass; adds to ``new_roots`` what did not fit."""
        self.roots = roots
        self.region = {
            label: k
            for k, label in enumerate(sorted(roots, key=self.rpo.__getitem__))
        }
        self.new_roots: set[str] = set()
        self.messages: list[str] = []
        self.guarded: set[int] = set()
        self.emitted: list[str] = []
        self.pending = 0
        self.nested = 0
        out: list[str] = []
        if not roots:
            self._tree(self.func.entry, 1, None, [], out)
            return out
        out.append(f" b = {self.region[self.func.entry]}")
        out.append(" while True:")
        out.append("  if s > _M:")
        out.append("   raise _B(_M)")
        for label, k in self.region.items():
            out.append(f"  {'if' if k == 0 else 'elif'} b == {k}:")
            out.append("   b = -1")
            self.pending = 0
            self._tree(label, 3, None, [], out)
        return out

    # -- main ----------------------------------------------------------
    def compile(self) -> CompiledProgram:
        func = self.func
        self.weight = {
            label: len(block.body) + 1 for label, block in func.blocks.items()
        }
        self._plan_chords()
        roots = set(self.irreducible)
        while True:
            self._place(roots)
            if roots:
                roots.add(func.entry)
            body = self._emit(roots)
            if not self.new_roots:
                break
            roots |= self.new_roots
        assert sorted(self.emitted) == sorted(self.rpo), (
            "every reachable block is emitted exactly once"
        )

        args = [f"a{k}" for k in range(len(func.params))]
        arrays = list(self.arrays.values())
        lines = [f"def _run({', '.join(['_M', '_oa', *args, *arrays])}):"]
        for arg, param in zip(args, func.params):
            lines.append(f" r{self.slot(param)} = {arg}")
            if param != param.base:
                lines.append(f" r{self.slot(param.base)} = {arg}")
        for index in sorted(self.guarded):
            lines.append(f" r{index} = _U")
        for name in [*self.chord_counter.values(), "s"]:
            lines.append(f" {name} = 0")
        lines.extend(body)
        lines.append("")
        lines.extend(self.derive_lines)
        source = "\n".join(lines) + "\n"

        edge_pairs: list[tuple[str, str]] = []
        cost_per_block: list[int] = []
        expr_sites: list[list[tuple[tuple, int]]] = []
        for label in self.labels:
            block = func.blocks[label]
            term = block.terminator
            cost = op_tables.PHI_COST * len(block.phis)
            sites: dict[tuple, int] = {}
            for stmt in block.body:
                if isinstance(stmt, Assign):
                    rhs = stmt.rhs
                    if isinstance(rhs, BinOp):
                        cost += op_tables.BINARY_OPS[rhs.op].cost
                    elif isinstance(rhs, UnaryOp):
                        cost += op_tables.UNARY_OPS[rhs.op].cost
                    elif isinstance(rhs, Load):
                        cost += op_tables.LOAD_COST
                    else:
                        cost += op_tables.COPY_COST
                        continue
                    key = rhs.class_key()
                    sites[key] = sites.get(key, 0) + 1
                elif isinstance(stmt, Store):
                    cost += op_tables.STORE_COST
                else:
                    cost += op_tables.OUTPUT_COST
            if isinstance(term, CondJump):
                cost += op_tables.BRANCH_COST
            for succ in term.successors():
                edge_pairs.append((label, succ))
            cost_per_block.append(cost)
            expr_sites.append(list(sites.items()))

        return CompiledProgram(
            name=func.name,
            n_params=len(func.params),
            labels=self.labels,
            entry_has_phis=bool(func.blocks[func.entry].phis),
            edge_pairs=edge_pairs,
            cost_per_block=cost_per_block,
            expr_sites=expr_sites,
            arrays=list(func.arrays.items()),
            source=source,
            op_keys=list(self.op_index),
            messages=self.messages,
        )


def chord_bound(func: Function) -> int:
    """|E| − |V| + max(R, 1) over the reachable CFG of *func*.

    R counts the reachable return blocks; each arm of a branch is an
    edge.  This is the cycle rank of the CFG augmented with ⊤ (one edge
    from each return block), hence the number of chords of any spanning
    tree of it — the fewest counters that determine every block and
    edge count.  With no return block ⊤ is isolated and the CFG's own
    cycle rank |E| − |V| + 1 remains.
    """
    reach = CFG(func).reverse_postorder()
    n_edges = returns = 0
    for label in reach:
        succs = func.blocks[label].terminator.successors()
        n_edges += len(succs)
        returns += not succs
    return n_edges - len(reach) + max(returns, 1)


def compile_function(func: Function) -> CompiledProgram:
    """Lower *func* to a :class:`CompiledProgram` (no caching)."""
    return _Codegen(func).compile()


def run_compiled(
    func: Function,
    args: list[int] | None = None,
    max_steps: int = DEFAULT_MAX_STEPS,
    *,
    cache=None,
) -> RunResult:
    """Drop-in replacement for :func:`repro.profiles.interp.run_function`.

    With a pass-manager ``cache`` (an
    :class:`~repro.passes.cache.AnalysisCache` bound to *func*), the
    lowered program is memoised under the function's code generation, so
    repeated runs — the common case in the check oracles and the FDO
    protocol — compile once.
    """
    if cache is not None:
        from repro.passes.analyses import COMPILED_ANALYSIS

        program = cache.get(COMPILED_ANALYSIS)
    else:
        program = compile_function(func)
    return program.run(args, max_steps=max_steps)
