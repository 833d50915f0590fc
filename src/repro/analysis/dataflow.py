"""Bit-vector data-flow framework and the PRE-related instances.

The framework solves forward/backward union/intersection problems over sets
of *expression keys* (the lexical identity of first-order expressions, see
:meth:`BinOp.class_key`).  MC-PRE uses it exactly as the paper describes —
classical bit-vector analyses solving all expressions of the program at
once — and the per-expression scalar wrappers below serve as oracles for
the sparse FRG propagations of MC-SSAPRE.

Semantics of the local predicates for a lexical expression ``e`` in block
``B`` (phis execute at block entry, before the "post-phi point" where
SSAPRE's hypothetical Φs live):

* ``phi_kill`` — a phi of ``B`` assigns an operand base name of ``e``.
* ``body_kill`` — a body statement assigns an operand base name of ``e``.
* ``antloc`` — ``e`` is computed in the body before any body kill
  (locally anticipated at the post-phi point).
* ``comp`` — ``e`` is computed in the body and no kill follows the last
  computation (locally available at block exit).

On a non-SSA program these predicates are exact.  On an SSA program they
are conservative in both directions, because a lexical analysis cannot see
a value surviving a renaming variable-phi: availability misses it, and so
does anticipability, whose backward meet applies ``phi_kill`` on the edge
into such a phi even where the value flows through (generated seed 88
loses down-safety that way).  The sparse FRG analyses can see it, which is
one of the reasons the paper's approach is preferable.  DESIGN.md §4,
decision 1, records this blind spot of the down-safety oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ir.cfg import CFG
from repro.ir.function import BasicBlock, Function
from repro.ir.instructions import Assign, Store, is_expr_rhs
from repro.ir.memory import store_kills_key
from repro.ir.values import Var

ExprKey = tuple


def expression_keys(func: Function) -> list[ExprKey]:
    """All lexical expression classes computed anywhere in *func*.

    Deterministic order: first appearance in block insertion order.
    Includes load classes (``("load", ("arr", name), index_key)``); their
    availability/anticipability is additionally killed by may-aliasing
    stores, see :func:`compute_local_props`.
    """
    seen: dict[ExprKey, None] = {}
    for block in func:
        for stmt in block.body:
            if isinstance(stmt, Assign) and is_expr_rhs(stmt.rhs):
                seen.setdefault(stmt.rhs.class_key(), None)
    return list(seen)


def _operand_bases(key: ExprKey) -> set[str]:
    """Base variable names referenced by an expression-class key."""
    bases: set[str] = set()
    for kind, payload in key[1:]:
        if kind == "var":
            bases.add(payload)
    return bases


@dataclass(slots=True)
class LocalProps:
    """Local data-flow predicates of one block for every expression key."""

    phi_kill: set[ExprKey]
    body_kill: set[ExprKey]
    antloc: set[ExprKey]
    comp: set[ExprKey]

    @property
    def transp(self) -> set[ExprKey]:
        return set()  # computed by callers as universe - kills


def build_kill_index(keys: list[ExprKey]) -> dict[str, list[ExprKey]]:
    """Map each base variable name to the expression keys it kills."""
    killed_by_name: dict[str, list[ExprKey]] = {}
    for key in keys:
        for base in _operand_bases(key):
            killed_by_name.setdefault(base, []).append(key)
    return killed_by_name


def compute_local_props(
    block: BasicBlock,
    keys: list[ExprKey],
    killed_by_name: dict[str, list[ExprKey]] | None = None,
) -> LocalProps:
    """Scan one block and compute the local predicates for all *keys*.

    Pass a precomputed :func:`build_kill_index` when calling per block
    over many keys — rebuilding it per block is quadratic.
    """
    wanted = set(keys)
    if killed_by_name is None:
        killed_by_name = build_kill_index(keys)
    # Load classes per array symbol, for store kill scans.
    load_keys_by_array: dict[str, list[ExprKey]] = {}
    for key in keys:
        if key[0] == "load":
            load_keys_by_array.setdefault(key[1][1], []).append(key)

    phi_kill: set[ExprKey] = set()
    for phi in block.phis:
        phi_kill.update(killed_by_name.get(phi.target.name, ()))

    body_kill: set[ExprKey] = set()
    antloc: set[ExprKey] = set()
    comp: set[ExprKey] = set()
    for stmt in block.body:
        if isinstance(stmt, Store):
            # A store kills every load class it may alias: downstream
            # loads of that class are no longer redundant with upstream
            # ones (the cell may have changed).
            for key in load_keys_by_array.get(stmt.array, ()):
                if store_kills_key(stmt.array, stmt.index, key):
                    body_kill.add(key)
                    comp.discard(key)
            continue
        if not isinstance(stmt, Assign):
            continue
        if is_expr_rhs(stmt.rhs):
            key = stmt.rhs.class_key()
            if key in wanted:
                if key not in body_kill:
                    antloc.add(key)
                comp.add(key)
        target: Var = stmt.target
        for key in killed_by_name.get(target.name, ()):
            body_kill.add(key)
            comp.discard(key)
    return LocalProps(phi_kill=phi_kill, body_kill=body_kill, antloc=antloc, comp=comp)


@dataclass
class PREDataflow:
    """Solved global availability / anticipability predicates.

    Every attribute maps a block label to the set of expression keys for
    which the predicate holds.  All four classical predicates plus their
    "partial" (union-join) variants are solved, since MC-PRE needs
    availability and partial anticipability while safe PRE's down-safety
    oracle needs full anticipability.
    """

    avail_in: dict[str, set[ExprKey]]
    avail_out: dict[str, set[ExprKey]]
    pavail_in: dict[str, set[ExprKey]]
    pavail_out: dict[str, set[ExprKey]]
    ant_postphi: dict[str, set[ExprKey]]
    ant_out: dict[str, set[ExprKey]]
    pant_postphi: dict[str, set[ExprKey]]
    pant_out: dict[str, set[ExprKey]]
    local: dict[str, LocalProps]
    keys: list[ExprKey]

    def avail_at_postphi(self, label: str) -> set[ExprKey]:
        """Expressions fully available at the post-phi point of *label*."""
        return self.avail_in[label] - self.local[label].phi_kill

    def pavail_at_postphi(self, label: str) -> set[ExprKey]:
        return self.pavail_in[label] - self.local[label].phi_kill


def solve_pre_dataflow(func: Function, keys: list[ExprKey] | None = None) -> PREDataflow:
    """Solve the four bit-vector problems for *func* over *keys*."""
    cfg = CFG(func)
    rpo = cfg.reverse_postorder()
    if keys is None:
        keys = expression_keys(func)
    universe = set(keys)
    kill_index = build_kill_index(keys)
    local = {
        label: compute_local_props(func.blocks[label], keys, kill_index)
        for label in rpo
    }

    # ---------------- forward: availability ----------------
    avail_in = {label: (set() if label == cfg.entry else set(universe)) for label in rpo}
    avail_out = {label: set(universe) for label in rpo}
    pavail_in = {label: set() for label in rpo}
    pavail_out = {label: set() for label in rpo}

    changed = True
    while changed:
        changed = False
        for label in rpo:
            props = local[label]
            if label != cfg.entry:
                preds = [p for p in cfg.predecessors(label) if p in avail_out]
                new_in = set(universe)
                for pred in preds:
                    new_in &= avail_out[pred]
                if not preds:
                    new_in = set()
                new_pin = set()
                for pred in preds:
                    new_pin |= pavail_out[pred]
            else:
                new_in = set()
                new_pin = set()
            transparent = universe - props.phi_kill - props.body_kill
            new_out = props.comp | (new_in & transparent)
            new_pout = props.comp | (new_pin & transparent)
            if (
                new_in != avail_in[label]
                or new_out != avail_out[label]
                or new_pin != pavail_in[label]
                or new_pout != pavail_out[label]
            ):
                avail_in[label] = new_in
                avail_out[label] = new_out
                pavail_in[label] = new_pin
                pavail_out[label] = new_pout
                changed = True

    # ---------------- backward: anticipability ----------------
    ant_postphi = {label: set(universe) for label in rpo}
    ant_out = {label: set(universe) for label in rpo}
    pant_postphi = {label: set() for label in rpo}
    pant_out = {label: set() for label in rpo}

    po = rpo[::-1]
    changed = True
    while changed:
        changed = False
        for label in po:
            props = local[label]
            succs = [s for s in cfg.successors(label) if s in ant_postphi]
            if cfg.successors(label):
                new_out = set(universe)
                for succ in succs:
                    new_out &= ant_postphi[succ] - local[succ].phi_kill
                new_pout = set()
                for succ in succs:
                    new_pout |= pant_postphi[succ] - local[succ].phi_kill
            else:
                new_out = set()
                new_pout = set()
            not_body_killed = universe - props.body_kill
            new_postphi = props.antloc | (new_out & not_body_killed)
            new_ppostphi = props.antloc | (new_pout & not_body_killed)
            if (
                new_out != ant_out[label]
                or new_postphi != ant_postphi[label]
                or new_pout != pant_out[label]
                or new_ppostphi != pant_postphi[label]
            ):
                ant_out[label] = new_out
                ant_postphi[label] = new_postphi
                pant_out[label] = new_pout
                pant_postphi[label] = new_ppostphi
                changed = True

    return PREDataflow(
        avail_in=avail_in,
        avail_out=avail_out,
        pavail_in=pavail_in,
        pavail_out=pavail_out,
        ant_postphi=ant_postphi,
        ant_out=ant_out,
        pant_postphi=pant_postphi,
        pant_out=pant_out,
        local=local,
        keys=keys,
    )
