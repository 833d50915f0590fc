"""Factored redundancy graph (FRG) construction — SSAPRE steps 1 and 2.

For each lexically identified expression class the two steps are:

* **Φ-Insertion** — place hypothetical Φs (factoring points of the
  hypothetical temporary ``h``) at the iterated dominance frontier of every
  real occurrence, and at every block containing a variable phi of one of
  the expression's operands (a version change of an operand may change the
  value of ``h`` there).
* **Rename** — assign versions to all occurrences of ``h`` via a preorder
  dominator-tree walk with one stack per class, exactly as in SSA
  construction.  Two occurrences receive the same version iff they are
  guaranteed to compute the same value.

MC-SSAPRE's step 2 additions (paper Section 3.1.3) are integrated here:
real occurrences are pushed on the renaming stack even when they do not
define a new version, and any occurrence dominated by a real occurrence of
its own version is marked ``rg_excluded`` — it is trivially fully redundant
and can be excluded from the reduced graph.

The resulting :class:`FRG` is the "SSA graph" out of which MC-SSAPRE forms
its flow network, and on which classic SSAPRE runs its sparse analyses.
Rename also records each Φ's *users* — the Φ operands its version flows
into — and :func:`propagate` is the one worklist over that def-use index:
every boolean Φ attribute of both drivers (full availability, partial
anticipability, can-be-avail, later, will-be-avail from the cut, the
SSAPREsp in-loop use chase) is the set of Φs it reaches from some seeds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Optional, Union

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.passes.cache import AnalysisCache

from repro.analysis import cfg_of, dominance_frontiers_of, dominator_tree_of
from repro.analysis.domfrontier import iterated_dominance_frontier
from repro.analysis.dominators import DominatorTree
from repro.ir.cfg import CFG
from repro.ir.function import Function
from repro.ir.instructions import Assign, BinOp, Load, Store, UnaryOp, is_expr_rhs
from repro.ir.memory import store_kills_key
from repro.ir.ops import is_trapping
from repro.ir.values import Const, Operand, Var


ExprKey = tuple


@dataclass(frozen=True, slots=True)
class ExprClass:
    """A lexically identified expression (paper footnote 1).

    Load classes (``("load", ("arr", A), index_base)``) participate like
    unary expressions whose single operand is the index: the array symbol
    is part of the class identity, not an operand, so the FRG machinery
    (operand stacks, Φ-operand matching) sees only SSA values.  The extra
    memory dimension — a may-aliasing store changes the loaded value even
    when the index value is unchanged — is injected during Rename as kill
    events, see :class:`_Renamer`.
    """

    key: ExprKey

    @property
    def op(self) -> str:
        return self.key[0]

    @property
    def is_load(self) -> bool:
        return self.key[0] == "load"

    @property
    def array(self) -> str:
        """Array symbol of a load class (only valid when ``is_load``)."""
        return self.key[1][1]

    @property
    def arity(self) -> int:
        return len(self.operand_bases)

    @property
    def operand_bases(self) -> tuple:
        """Per-position operand identity: ('var', name) or ('const', v)."""
        if self.is_load:
            return tuple(self.key[2:])
        return tuple(self.key[1:])

    @property
    def var_names(self) -> tuple[str, ...]:
        return tuple(p for k, p in self.operand_bases if k == "var")

    @property
    def trapping(self) -> bool:
        return is_trapping(self.op)

    def make_rhs(self, values: tuple[Operand, ...]):
        """Build a BinOp/UnaryOp/Load computing this class from values."""
        if self.is_load:
            return Load(self.key[1][1], values[0])
        if self.arity == 2:
            return BinOp(self.op, values[0], values[1])
        return UnaryOp(self.op, values[0])

    def __str__(self) -> str:
        parts = [p if k == "var" else str(p) for k, p in self.operand_bases]
        if self.is_load:
            return f"load({self.array}[{', '.join(parts)}])"
        return f"{self.op}({', '.join(parts)})"


@dataclass(eq=False)
class RealOcc:
    """A real occurrence of the expression (exists in the input program)."""

    label: str
    stmt: Assign
    stmt_index: int
    operand_values: tuple[Operand, ...] = ()
    version: int = -1
    def_node: Optional["DefNode"] = None  #: version definer; None = defines itself
    #: nearest dominating real occurrence of the same version, if any
    crossing_real: Optional["RealOcc"] = None
    rg_excluded: bool = False
    # --- Finalize attributes ---
    reload: bool = False
    save: bool = False

    @property
    def is_use(self) -> bool:
        """True when this occurrence uses a version defined elsewhere."""
        return self.def_node is not None

    def __repr__(self) -> str:
        flags = []
        if self.rg_excluded:
            flags.append("excl")
        if self.reload:
            flags.append("reload")
        if self.save:
            flags.append("save")
        suffix = f" [{','.join(flags)}]" if flags else ""
        return f"RealOcc(h{self.version}@{self.label}{suffix})"


@dataclass(eq=False)
class PhiOperand:
    """One incoming operand of a hypothetical Φ (per predecessor block)."""

    pred: str
    phi: "PhiNode"
    version: int | None = None  #: None = ⊥ (no value available on this edge)
    def_node: Optional["DefNode"] = None
    has_real_use: bool = False
    crossing_real: RealOcc | None = None
    operand_values: tuple[Operand | None, ...] = ()
    insert: bool = False

    @property
    def is_bottom(self) -> bool:
        return self.version is None

    def __repr__(self) -> str:
        v = "⊥" if self.is_bottom else f"h{self.version}"
        return f"PhiOperand({v} from {self.pred})"


@dataclass(eq=False)
class PhiNode:
    """A hypothetical Φ for the expression's temporary ``h``."""

    label: str
    version: int = -1
    operands: list[PhiOperand] = field(default_factory=list)
    operand_values: tuple[Operand, ...] = ()
    # --- analysis attributes (filled by later steps) ---
    down_safe: bool = False
    can_be_avail: bool = True
    later: bool = True
    will_be_avail: bool = False
    fully_avail: bool = False  # MC-SSAPRE step 3
    part_anticipated: bool = False  # MC-SSAPRE step 3
    in_reduced: bool = False  # MC-SSAPRE step 4
    #: The def-use index: operands (of this or other Φs) whose value is
    #: this Φ's version, recorded by Rename.
    users: list[PhiOperand] = field(default_factory=list)

    def operand_for(self, pred: str) -> PhiOperand:
        for operand in self.operands:
            if operand.pred == pred:
                return operand
        raise KeyError(f"no operand for predecessor {pred!r}")

    def __repr__(self) -> str:
        return f"PhiNode(h{self.version}@{self.label})"


DefNode = Union[PhiNode, RealOcc]


@dataclass
class FRG:
    """The factored redundancy graph of one expression class."""

    expr: ExprClass
    func: Function
    cfg: CFG
    domtree: DominatorTree
    phis: list[PhiNode] = field(default_factory=list)
    real_occs: list[RealOcc] = field(default_factory=list)
    next_version: int = 0

    def phi_at(self, label: str) -> PhiNode | None:
        for phi in self.phis:
            if phi.label == label:
                return phi
        return None

    def node_count(self) -> int:
        return len(self.phis) + len(self.real_occs)

    def describe(self) -> str:
        """Human-readable dump used by examples and debugging."""
        lines = [f"FRG for {self.expr}:"]
        for phi in sorted(self.phis, key=lambda p: p.version):
            ops = ", ".join(
                f"{o.pred}: " + ("⊥" if o.is_bottom else f"h{o.version}")
                + ("*" if o.has_real_use else "")
                for o in phi.operands
            )
            lines.append(f"  h{phi.version} = Φ({ops}) at {phi.label}")
        for occ in self.real_occs:
            mark = " [rg_excluded]" if occ.rg_excluded else ""
            definer = (
                "defines"
                if occ.def_node is None
                else f"uses h{occ.version} of {occ.def_node!r}"
            )
            lines.append(f"  h{occ.version}@{occ.label}: {definer}{mark}")
        return "\n".join(lines)


def collect_expr_classes(func: Function) -> list[ExprClass]:
    """All candidate expression classes, in first-occurrence order."""
    seen: dict[ExprKey, None] = {}
    for block in func:
        for stmt in block.body:
            if isinstance(stmt, Assign) and is_expr_rhs(stmt.rhs):
                seen.setdefault(stmt.rhs.class_key(), None)
    return [ExprClass(key) for key in seen]


@dataclass(slots=True)
class _StackEntry:
    version: int
    def_node: DefNode | None  #: None marks a store-kill sentinel
    operand_values: tuple
    real_seen: RealOcc | None


class _Renamer:
    """Shared dominator-tree walk renaming all classes in one pass."""

    def __init__(
        self,
        func: Function,
        cfg: CFG,
        domtree: DominatorTree,
        frgs: dict[ExprKey, FRG],
        phi_blocks: dict[ExprKey, list[str]],
    ) -> None:
        self.func = func
        self.cfg = cfg
        self.domtree = domtree
        self.frgs = frgs
        # Variable version stacks (the program is in SSA; the stacks recover
        # "current version at point p" during the walk).
        self.var_stacks: dict[str, list[int]] = {}
        self.expr_stacks: dict[ExprKey, list[_StackEntry]] = {
            key: [] for key in frgs
        }
        # Load classes indexed by array symbol, for store-kill processing.
        self.loads_by_array: dict[str, list[ExprKey]] = {}
        for key, frg in frgs.items():
            if frg.expr.is_load:
                self.loads_by_array.setdefault(frg.expr.array, []).append(key)
        #: monotone counter making store-kill sentinel values unique.
        self._kill_serial = 0
        # Pre-created PhiNodes indexed by block label (sparse: iterating
        # per block must not touch classes with no Φ there).
        self.phis_by_label: dict[str, list[tuple[ExprKey, PhiNode]]] = {}
        for key, labels in phi_blocks.items():
            for label in labels:  # block order: Φ order decides temp names
                node = PhiNode(label=label)
                self.phis_by_label.setdefault(label, []).append((key, node))
                frgs[key].phis.append(node)

    # ------------------------------------------------------------------
    def current_version(self, name: str) -> int | None:
        stack = self.var_stacks.get(name)
        return stack[-1] if stack else None

    def push_var(self, var: Var, pushed: list) -> None:
        assert var.version is not None
        self.var_stacks.setdefault(var.name, []).append(var.version)
        pushed.append(("var", var.name))

    def current_operand_values(
        self, expr: ExprClass
    ) -> tuple[Operand | None, ...]:
        """Current value of each expression operand (None = undefined)."""
        values: list[Operand | None] = []
        for kind, payload in expr.operand_bases:
            if kind == "const":
                values.append(Const(payload))
            else:
                version = self.current_version(payload)
                values.append(None if version is None else Var(payload, version))
        return tuple(values)

    # ------------------------------------------------------------------
    def run(self) -> None:
        assert self.func.entry is not None
        # Parameters are defined at entry.
        entry_pushed: list = []
        for param in self.func.params:
            if param.version is not None:
                self.push_var(param, entry_pushed)
        walk: list[tuple[str, list | None]] = [(self.func.entry, None)]
        pushed_by_label: dict[str, list] = {}
        while walk:
            label, pushes = walk.pop()
            if pushes is not None:
                self._leave(pushes)
                continue
            pushed = self._visit(label)
            pushed_by_label[label] = pushed
            walk.append((label, pushed))
            for child in reversed(self.domtree.children[label]):
                walk.append((child, None))
        self._leave(entry_pushed)

    def _leave(self, pushed: list) -> None:
        for kind, name in reversed(pushed):
            if kind == "var":
                self.var_stacks[name].pop()
            else:
                self.expr_stacks[name].pop()

    def _visit(self, label: str) -> list:
        block = self.func.blocks[label]
        pushed: list = []

        # 1. Variable phis define new versions at the head of the block.
        for phi in block.phis:
            self.push_var(phi.target, pushed)

        # 2. Hypothetical Φs: each defines a new version of h.
        for key, node in self.phis_by_label.get(label, ()):
            frg = self.frgs[key]
            frg.next_version += 1
            node.version = frg.next_version
            values = self.current_operand_values(frg.expr)
            node.operand_values = values
            entry = _StackEntry(
                version=node.version,
                def_node=node,
                operand_values=values,
                real_seen=None,
            )
            self.expr_stacks[key].append(entry)
            pushed.append(("expr", key))

        # 3. Body statements: occurrences, then kills via the target.
        for index, stmt in enumerate(block.body):
            if isinstance(stmt, Assign):
                if is_expr_rhs(stmt.rhs):
                    key = stmt.rhs.class_key()
                    if key in self.frgs:
                        self._visit_occurrence(key, label, stmt, index, pushed)
                self.push_var(stmt.target, pushed)
            elif isinstance(stmt, Store):
                self._note_store_kill(stmt, pushed)

        # 4. Fill Φ operands of successors from the end-of-block state.
        seen_succs: set[str] = set()
        for succ in self.cfg.successors(label):
            if succ in seen_succs:
                continue
            seen_succs.add(succ)
            for key, node in self.phis_by_label.get(succ, ()):
                self._fill_phi_operand(key, self.frgs[key], node, label)
        return pushed

    def _note_store_kill(self, stmt: Store, pushed: list) -> None:
        """A may-aliasing store ends the current version of a load class.

        Unlike an operand redefinition — where the next occurrence's
        *operand values* necessarily differ, so the version-matching test
        separates versions automatically — a store changes memory while
        leaving every SSA operand untouched.  Renaming must therefore
        break the version explicitly: a sentinel stack entry with operand
        values no real occurrence can match forces the next occurrence
        (and any Φ operand filled downstream on this walk path) to start
        a new version / resolve to ⊥.
        """
        for key in self.loads_by_array.get(stmt.array, ()):
            if not store_kills_key(stmt.array, stmt.index, key):
                continue
            self._kill_serial += 1
            self.expr_stacks[key].append(
                _StackEntry(
                    version=-1,
                    def_node=None,
                    operand_values=(("__store_kill__", self._kill_serial),),
                    real_seen=None,
                )
            )
            pushed.append(("expr", key))

    def _visit_occurrence(
        self, key: ExprKey, label: str, stmt: Assign, index: int, pushed: list
    ) -> None:
        frg = self.frgs[key]
        rhs = stmt.rhs
        assert is_expr_rhs(rhs)
        occ = RealOcc(
            label=label,
            stmt=stmt,
            stmt_index=index,
            operand_values=tuple(rhs.operands),
        )
        frg.real_occs.append(occ)
        stack = self.expr_stacks[key]
        top = stack[-1] if stack else None
        if top is not None and top.operand_values == occ.operand_values:
            # Same version as the definition on top of the stack.
            occ.version = top.version
            occ.def_node = top.def_node
            occ.crossing_real = top.real_seen
            if top.real_seen is not None:
                # Dominated by a real occurrence of its own version:
                # trivially fully redundant (MC-SSAPRE step 2).
                occ.rg_excluded = True
                # Not pushed — the existing entry already records a real.
            else:
                # First real use of a Φ-defined version: push it so later
                # occurrences see the crossing real occurrence.
                stack.append(
                    _StackEntry(
                        version=top.version,
                        def_node=top.def_node,
                        operand_values=top.operand_values,
                        real_seen=occ,
                    )
                )
                pushed.append(("expr", key))
        else:
            # New version, defined by this real occurrence.
            frg.next_version += 1
            occ.version = frg.next_version
            occ.def_node = None
            stack.append(
                _StackEntry(
                    version=occ.version,
                    def_node=occ,
                    operand_values=occ.operand_values,
                    real_seen=occ,
                )
            )
            pushed.append(("expr", key))

    def _fill_phi_operand(
        self, key: ExprKey, frg: FRG, node: PhiNode, pred: str
    ) -> None:
        operand = PhiOperand(pred=pred, phi=node)
        node.operands.append(operand)
        current = self.current_operand_values(frg.expr)
        operand.operand_values = current
        stack = self.expr_stacks[key]
        top = stack[-1] if stack else None
        if (
            top is not None
            and None not in current
            and top.operand_values == current
        ):
            operand.version = top.version
            operand.def_node = top.def_node
            operand.crossing_real = top.real_seen
            operand.has_real_use = top.real_seen is not None
            if isinstance(top.def_node, PhiNode):
                top.def_node.users.append(operand)


def build_frgs(
    func: Function,
    classes: list[ExprClass] | None = None,
    cache: "AnalysisCache | None" = None,
) -> dict[ExprKey, FRG]:
    """Run Φ-Insertion and Rename for every class; return the FRGs.

    All classes are renamed in a single dominator-tree walk (the per-class
    work is sparse), mirroring how a production SSAPRE keeps one worklist
    per expression.  CFG-derived analyses come from *cache* when given
    (SSA construction just computed them; they are still valid).
    """
    from repro.passes.cache import AnalysisCache

    cache = AnalysisCache.ensure(func, cache)
    cfg = cfg_of(func, cache)
    domtree = dominator_tree_of(func, cache)
    frontiers = dominance_frontiers_of(func, cache)
    if classes is None:
        classes = collect_expr_classes(func)

    reachable = set(domtree.rpo)
    block_order = {label: i for i, label in enumerate(func.blocks)}
    wanted = {expr.key for expr in classes}

    # One pass over the program: occurrence blocks per class, variable-phi
    # blocks per base name (a version change of an operand changes the
    # value of h there), and store blocks per array symbol (a may-aliasing
    # store is a *definition of memory* for a load class — merge points
    # downstream of it need Φs, or a one-sided store would leave a
    # post-merge load looking fully redundant).
    occ_blocks: dict[ExprKey, set[str]] = {key: set() for key in wanted}
    phi_blocks_by_name: dict[str, set[str]] = {}
    stores_by_array: dict[str, list[tuple[str, Store]]] = {}
    for label in reachable:
        block = func.blocks[label]
        for phi in block.phis:
            phi_blocks_by_name.setdefault(phi.target.name, set()).add(label)
        for stmt in block.body:
            if isinstance(stmt, Assign) and is_expr_rhs(stmt.rhs):
                key = stmt.rhs.class_key()
                if key in wanted:
                    occ_blocks[key].add(label)
            elif isinstance(stmt, Store):
                stores_by_array.setdefault(stmt.array, []).append((label, stmt))

    preds_of = {label: cfg.predecessors(label) for label in reachable}

    def reaches_an_occurrence(key: ExprKey) -> set[str]:
        """Blocks from which some occurrence of *key* is CFG-reachable.

        An h-Φ placed outside this set can never be partially
        anticipated, so it would be dead weight in every later step;
        pruning here keeps FRGs sparse on large functions.
        """
        seen = set(occ_blocks[key])
        stack = list(seen)
        while stack:
            label = stack.pop()
            for pred in preds_of[label]:
                if pred not in seen and pred in reachable:
                    seen.add(pred)
                    stack.append(pred)
        return seen

    frgs: dict[ExprKey, FRG] = {}
    phi_blocks: dict[ExprKey, list[str]] = {}
    for expr in classes:
        frgs[expr.key] = FRG(expr=expr, func=func, cfg=cfg, domtree=domtree)
        useful = reaches_an_occurrence(expr.key)
        operand_phi_blocks: set[str] = set()
        for name in expr.var_names:
            operand_phi_blocks |= phi_blocks_by_name.get(name, set())
        kill_blocks: set[str] = set()
        if expr.is_load:
            for label, stmt in stores_by_array.get(expr.array, ()):
                if store_kills_key(stmt.array, stmt.index, expr.key):
                    kill_blocks.add(label)
        seeds = (
            occ_blocks[expr.key]
            | (operand_phi_blocks & useful)
            | (kill_blocks & useful)
        )
        placed = iterated_dominance_frontier(frontiers, seeds) | operand_phi_blocks
        placed &= reachable
        phi_blocks[expr.key] = sorted(placed & useful, key=block_order.__getitem__)

    _Renamer(func, cfg, domtree, frgs, phi_blocks).run()

    for frg in frgs.values():
        _check_frg(frg)
    return frgs


def propagate(
    seeds: Iterable[PhiNode],
    follows: Callable[[PhiOperand], bool],
    *,
    backward: bool = False,
) -> set[PhiNode]:
    """Every Φ reachable from *seeds* over Φ-operand def-use edges.

    Forward, a Φ reaches the Φ owning each of its :attr:`PhiNode.users`;
    backward, it reaches the Φ defining each of its operands.  An edge is
    taken only when ``follows(operand)`` holds for the operand on it.
    Each boolean Φ attribute is this set (or its complement) for its own
    seeds and edge filter — the unique fixpoint of a monotone system, so
    the visit order cannot change it.
    """
    reached = set(seeds)
    stack = list(reached)
    while stack:
        phi = stack.pop()
        if backward:
            edges = [
                (op, op.def_node) for op in phi.operands
                if isinstance(op.def_node, PhiNode)
            ]
        else:
            edges = [(op, op.phi) for op in phi.users]
        for operand, nxt in edges:
            if nxt not in reached and follows(operand):
                reached.add(nxt)
                stack.append(nxt)
    return reached


def build_frg(func: Function, expr: ExprClass) -> FRG:
    """Build the FRG of a single expression class."""
    return build_frgs(func, [expr])[expr.key]


def _check_frg(frg: FRG) -> None:
    """Internal consistency assertions (cheap; always on)."""
    versions: dict[int, DefNode] = {}
    for phi in frg.phis:
        assert phi.version > 0, f"unrenamed phi {phi!r}"
        assert phi.version not in versions
        versions[phi.version] = phi
        preds = []
        seen = set()
        for pred in frg.cfg.predecessors(phi.label):
            if pred not in seen:
                seen.add(pred)
                preds.append(pred)
        assert len(phi.operands) == len(preds), (
            f"{phi!r} has {len(phi.operands)} operands for preds {preds}"
        )
    for occ in frg.real_occs:
        assert occ.version > 0
        if occ.def_node is None:
            assert occ.version not in versions or versions[occ.version] is occ
            versions.setdefault(occ.version, occ)
