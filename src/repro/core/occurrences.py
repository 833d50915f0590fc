"""The shared occurrence index — sparse, rank-annotated, incremental.

Both PRE drivers used to discover work with a one-shot scan
(:func:`repro.core.ssapre.frg.collect_expr_classes`), which makes them
blind to *second-order* redundancy: a composite expression whose operands
are rewritten into PRE temporaries by a lower-rank class's code motion
(``t1 = a+b; u = t1+c``) only becomes lexically redundant *after* that
motion has run.  This module provides the data structure the iterative
worklist engine (:mod:`repro.core.worklist`) is built on:

* one function-wide scan builds an index ``ExprKey → occurrences`` over
  every ``BinOp``/``UnaryOp`` right-hand side (the same population
  ``collect_expr_classes`` sees, so rank-0 behaviour is identical);
* every class carries a **rank** — its operand nesting depth through
  candidate definitions.  ``add(a, b)`` over source variables has rank 0;
  ``add(x, c)`` where some definition of ``x`` is itself a candidate
  occurrence has rank ``1 + rank(add(a, b))``, and so on through chains.
  Cycles (``x = x + 1``) contribute depth 0, so ranks are always finite;
* the index absorbs the statement-level deltas CodeMotion reports
  (insertions, removed statements, the ``x = t.v`` copies left behind by
  saves and reloads) and can rewrite the operands of indexed occurrences
  through those copies — the step that turns second-order redundancy into
  first-order redundancy for the next round, returning exactly the class
  keys that gained a rewritten occurrence (the *dirty* classes).

The index never touches the CFG: all updates are straight-line statement
bookkeeping, which is what lets the worklist engine keep every
CFG-derived analysis alive across rounds (see the ``preserves()``
contract notes in :mod:`repro.core.worklist`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.ssapre.frg import ExprClass, ExprKey
from repro.ir.function import Function
from repro.ir.instructions import Assign, BinOp, UnaryOp, is_expr_rhs
from repro.ir.ops import is_trapping
from repro.ir.values import Var


@dataclass(eq=False)
class Occurrence:
    """One candidate statement: an ``Assign`` whose rhs is an operator."""

    label: str
    stmt: Assign
    key: ExprKey

    def __repr__(self) -> str:
        return f"Occurrence({self.stmt} @ {self.label})"


class OccurrenceIndex:
    """All candidate occurrences of one function, keyed and ranked."""

    def __init__(self, func: Function) -> None:
        self.func = func
        #: id(stmt) → Occurrence, for delta application by identity.
        self._occs: dict[int, Occurrence] = {}
        #: key → {id(stmt): Occurrence}, insertion-ordered per key.
        self._by_key: dict[ExprKey, dict[int, Occurrence]] = {}
        #: (base name, SSA version) → ids of occurrences using that value,
        #: insertion-ordered: iterating a set of ids would tie the rewrite
        #: order (and so new keys' first-seen order) to memory addresses.
        self._uses: dict[tuple[str, int | None], dict[int, None]] = {}
        #: key → position of the key's first occurrence in the build scan
        #: (ties in rank are broken by this, keeping rank-0 programs in
        #: exactly the historical first-occurrence order).
        self._key_order: dict[ExprKey, int] = {}
        self._next_order = 0
        self._ranks: dict[ExprKey, int] | None = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, func: Function) -> "OccurrenceIndex":
        """Index every candidate occurrence in one pass over *func*."""
        index = cls(func)
        for block in func:
            for stmt in block.body:
                index.add_statement(block.label, stmt)
        return index

    # ------------------------------------------------------------------
    # Incremental maintenance (the CodeMotion delta protocol)
    # ------------------------------------------------------------------
    def add_statement(self, label: str, stmt) -> None:
        """Index *stmt* if it is a candidate occurrence; else ignore it."""
        if not (isinstance(stmt, Assign) and is_expr_rhs(stmt.rhs)):
            return
        key = stmt.rhs.class_key()
        occ = Occurrence(label=label, stmt=stmt, key=key)
        sid = id(stmt)
        self._occs[sid] = occ
        self._by_key.setdefault(key, {})[sid] = occ
        if key not in self._key_order:
            self._key_order[key] = self._next_order
            self._next_order += 1
        for operand in stmt.rhs.operands:
            if isinstance(operand, Var):
                self._uses.setdefault((operand.name, operand.version), {})[sid] = None
        self._ranks = None

    def remove_statement(self, stmt) -> None:
        """Drop *stmt* from the index (no-op when it was never indexed)."""
        occ = self._occs.pop(id(stmt), None)
        if occ is None:
            return
        sid = id(stmt)
        per_key = self._by_key.get(occ.key)
        if per_key is not None:
            per_key.pop(sid, None)
            if not per_key:
                del self._by_key[occ.key]
        for operand in occ.stmt.rhs.operands:
            if isinstance(operand, Var):
                users = self._uses.get((operand.name, operand.version))
                if users is not None:
                    users.pop(sid, None)
                    if not users:
                        del self._uses[(operand.name, operand.version)]
        self._ranks = None

    def rewrite_uses(
        self, copies: dict[tuple[str, int | None], Var]
    ) -> set[ExprKey]:
        """Propagate *copies* into the operands of indexed occurrences.

        ``copies`` maps a copy target ``(name, version)`` to its source
        value (the PRE temporary version holding the same value).  Every
        indexed occurrence using a target is rewritten in place — this
        mutates the program, exactly like one step of SSA copy
        propagation restricted to candidate operands — and re-keyed.
        Returns the set of class keys that gained a rewritten occurrence:
        the classes the next round must (re)process.

        Trapping occurrences are never rewritten: re-keying a ``div``/
        ``mod`` would change the program's *lexical* trapping signature,
        which the speculation-safety oracle (and the paper's Section 2
        exclusion) is defined over — and trapping classes are barred
        from speculation regardless, so the iterative win cannot apply
        to them.
        """
        dirty: set[ExprKey] = set()
        for target, source in copies.items():
            user_ids = self._uses.get(target)
            if not user_ids:
                continue
            for sid in list(user_ids):
                occ = self._occs[sid]
                stmt = occ.stmt
                if is_trapping(stmt.rhs.op):
                    continue
                self.remove_statement(stmt)
                rhs = stmt.rhs
                if isinstance(rhs, BinOp):
                    if isinstance(rhs.left, Var) and (rhs.left.name, rhs.left.version) == target:
                        rhs.left = source
                    if isinstance(rhs.right, Var) and (rhs.right.name, rhs.right.version) == target:
                        rhs.right = source
                else:
                    assert isinstance(rhs, UnaryOp)
                    if isinstance(rhs.operand, Var) and (rhs.operand.name, rhs.operand.version) == target:
                        rhs.operand = source
                self.add_statement(occ.label, stmt)
                dirty.add(stmt.rhs.class_key())
        return dirty

    def has_pending_uses(
        self, copies: dict[tuple[str, int | None], Var]
    ) -> bool:
        """Would :meth:`rewrite_uses` rewrite anything?  (Never mutates.)"""
        return any(
            not is_trapping(self._occs[sid].stmt.rhs.op)
            for target in copies
            for sid in self._uses.get(target, ())
        )

    # ------------------------------------------------------------------
    # Ranks and class enumeration
    # ------------------------------------------------------------------
    def keys(self) -> list[ExprKey]:
        """All keys with at least one live occurrence, in first-occurrence
        order."""
        keys = [key for key, occs in self._by_key.items() if occs]
        keys.sort(key=lambda k: self._key_order[k])
        return keys

    def occurrences(self, key: ExprKey) -> list[Occurrence]:
        return list(self._by_key.get(key, {}).values())

    def rank(self, key: ExprKey) -> int:
        """Operand nesting depth of *key* through candidate definitions."""
        if self._ranks is None:
            self._ranks = self._compute_ranks()
        return self._ranks.get(key, 0)

    def _compute_ranks(self) -> dict[ExprKey, int]:
        # Which live keys define each base name (via an occurrence's
        # target) — the "nesting through temp definitions" relation.
        # Insertion-ordered (not a set): through def cycles the walk order
        # decides ranks, and it must not depend on the string hash seed.
        def_keys: dict[str, dict[ExprKey, None]] = {}
        for key, occs in self._by_key.items():
            for occ in occs.values():
                def_keys.setdefault(occ.stmt.target.name, {})[key] = None

        ranks: dict[ExprKey, int] = {}
        GRAY = -1

        def operand_names(key: ExprKey) -> list[str]:
            return [payload for kind, payload in key[1:] if kind == "var"]

        for root in self._by_key:
            if root in ranks:
                continue
            # Explicit-stack DFS; GRAY marks break def cycles at depth 0.
            stack: list[tuple[ExprKey, int]] = [(root, 0)]
            while stack:
                key, state = stack.pop()
                if state == 0:
                    if key in ranks:
                        continue
                    ranks[key] = GRAY
                    stack.append((key, 1))
                    for name in operand_names(key):
                        for dkey in def_keys.get(name, ()):
                            if dkey not in ranks:
                                stack.append((dkey, 0))
                else:
                    best = 0
                    for name in operand_names(key):
                        for dkey in def_keys.get(name, ()):
                            dep = ranks.get(dkey, 0)
                            if dep == GRAY:
                                dep = 0  # cycle: contributes no depth
                            best = max(best, 1 + dep)
                    ranks[key] = best
        return ranks

    def first_seen(self, key: ExprKey) -> int:
        """Build-scan position of *key*'s first occurrence (ties in rank
        sorts are broken by it); unseen keys sort last."""
        return self._key_order.get(key, self._next_order)

    def sort_classes(self, classes: list[ExprClass]) -> list[ExprClass]:
        """Stable rank order: by rank, then the given relative order."""
        return sorted(classes, key=lambda e: self.rank(e.key))

    def classes_by_rank(self) -> list[ExprClass]:
        """Every live class, ordered by (rank, first occurrence).

        On a program with no composite chains every class has rank 0 and
        this is exactly ``collect_expr_classes`` order.
        """
        keys = self.keys()
        keys.sort(key=lambda k: (self.rank(k), self._key_order[k]))
        return [ExprClass(key) for key in keys]
