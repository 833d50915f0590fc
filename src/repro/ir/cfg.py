"""Control-flow graph views over a :class:`~repro.ir.function.Function`.

A :class:`CFG` is an immutable snapshot: it is cheap to build (one pass over
the blocks) and is rebuilt after any transform that changes control flow,
which keeps incremental-update bugs out of most passes.

One transform keeps its analyses current instead:
:func:`~repro.ir.transforms.restructure_while_loops` rotates loops one at a
time, and rebuilding CFG, dominators and loops after each rotation made the
transform 94% of :func:`~repro.pipeline.prepare` on the serve-warm programs.  It
builds them once and updates predecessor sets and loop bodies per
rotation.  That is exact because a rotation splits one header in two,
which moves only that loop's header and adds the clone to the loops around
it (the rule is spelled out there); a differential test against the
rebuild-every-rotation fixpoint, on suite programs, fuzz shapes and random
irreducible CFGs, pins the output byte for byte.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.ir.function import BasicBlock, Function


class CFG:
    """Predecessor/successor view plus traversal orders."""

    def __init__(self, func: Function) -> None:
        self.func = func
        self.entry = func.entry
        if self.entry is None:
            raise ValueError("function has no entry block")
        self.succs: dict[str, tuple[str, ...]] = {}
        self.preds: dict[str, list[str]] = {label: [] for label in func.blocks}
        for label, block in func.blocks.items():
            succs = block.successors()
            for succ in succs:
                if succ not in func.blocks:
                    raise ValueError(
                        f"block {label!r} branches to unknown label {succ!r}"
                    )
            self.succs[label] = succs
            for succ in succs:
                self.preds[succ].append(label)
        self._rpo: list[str] | None = None

    # ------------------------------------------------------------------
    # Neighbourhood queries
    # ------------------------------------------------------------------
    def successors(self, label: str) -> tuple[str, ...]:
        return self.succs[label]

    def predecessors(self, label: str) -> list[str]:
        return self.preds[label]

    def edges(self) -> Iterator[tuple[str, str]]:
        for label, succs in self.succs.items():
            for succ in succs:
                yield (label, succ)

    def exit_labels(self) -> list[str]:
        """Blocks whose terminator is a return (no successors)."""
        return [label for label, succs in self.succs.items() if not succs]

    def is_critical_edge(self, src: str, dst: str) -> bool:
        """True when *src* has >1 successors and *dst* has >1 predecessors.

        Distinct successor labels are what matters: a conditional branch with
        both arms equal is effectively unconditional.
        """
        return len(set(self.succs[src])) > 1 and len(self.preds[dst]) > 1

    # ------------------------------------------------------------------
    # Traversal orders
    # ------------------------------------------------------------------
    def reverse_postorder(self) -> list[str]:
        """Reverse postorder over blocks reachable from the entry."""
        if self._rpo is None:
            seen: set[str] = set()
            postorder: list[str] = []
            # Iterative DFS to avoid Python recursion limits on deep CFGs.
            assert self.entry is not None
            stack: list[tuple[str, Iterator[str]]] = []
            seen.add(self.entry)
            stack.append((self.entry, iter(self.succs[self.entry])))
            while stack:
                label, it = stack[-1]
                advanced = False
                for succ in it:
                    if succ not in seen:
                        seen.add(succ)
                        stack.append((succ, iter(self.succs[succ])))
                        advanced = True
                        break
                if not advanced:
                    postorder.append(label)
                    stack.pop()
            self._rpo = postorder[::-1]
        return list(self._rpo)

    def reachable(self) -> set[str]:
        return set(self.reverse_postorder())

    def blocks_in_rpo(self) -> Iterator[BasicBlock]:
        for label in self.reverse_postorder():
            yield self.func.blocks[label]


def unreachable_blocks(func: Function) -> set[str]:
    """Labels of blocks not reachable from the entry."""
    cfg = CFG(func)
    return set(func.blocks) - cfg.reachable()


def remove_unreachable_blocks(func: Function) -> list[str]:
    """Delete unreachable blocks and prune dangling phi arguments.

    Returns the labels removed (in no particular order).
    """
    dead = unreachable_blocks(func)
    if not dead:
        return []
    for label in dead:
        del func.blocks[label]
    for block in func:
        for phi in block.phis:
            for gone in dead & set(phi.args):
                del phi.args[gone]
    func.mark_cfg_mutated()
    return sorted(dead)


def edge_key(src: str, dst: str) -> tuple[str, str]:
    """Canonical dictionary key for a CFG edge."""
    return (src, dst)


def count_edges(cfg: CFG, labels: Iterable[str] | None = None) -> int:
    """Number of CFG edges, optionally restricted to a subset of blocks."""
    if labels is None:
        return sum(len(s) for s in cfg.succs.values())
    keep = set(labels)
    return sum(
        1 for src, dst in cfg.edges() if src in keep and dst in keep
    )
