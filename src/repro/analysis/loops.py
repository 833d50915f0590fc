"""Natural-loop discovery.

Back edges are CFG edges whose target dominates their source; the natural
loop of a back edge ``latch -> header`` is the set of blocks that can reach
the latch without passing through the header.  Loops sharing a header are
merged, as is conventional.

Used by the while→do-while restructuring transform (paper Figure 1) and by
the SSAPREsp baseline (loop-based speculation of Lo et al.).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.analysis.dominators import DominatorTree
from repro.ir.cfg import CFG


@dataclass
class Loop:
    """One natural loop: its header, latches and member blocks."""

    header: str
    latches: list[str] = field(default_factory=list)
    blocks: set[str] = field(default_factory=set)
    parent: "Loop | None" = None

    @property
    def depth(self) -> int:
        d = 1
        cur = self.parent
        while cur is not None:
            d += 1
            cur = cur.parent
        return d

    def exit_edges(self, cfg: CFG) -> list[tuple[str, str]]:
        """CFG edges leaving the loop."""
        return [
            (src, dst)
            for src in sorted(self.blocks)
            for dst in cfg.successors(src)
            if dst not in self.blocks
        ]

    def entry_preds(self, cfg: CFG) -> list[str]:
        """Predecessors of the header from outside the loop."""
        return [p for p in cfg.predecessors(self.header) if p not in self.blocks]


def natural_loop(
    header: str, latches: Iterable[str], preds: Mapping[str, Iterable[str]]
) -> set[str]:
    """*header* plus every block that reaches one of *latches* without
    passing through *header*, walking the predecessor map *preds*."""
    blocks = {header}
    worklist = list(latches)
    while worklist:
        label = worklist.pop()
        if label not in blocks:
            blocks.add(label)
            worklist.extend(preds[label])
    return blocks


class LoopForest:
    """All natural loops of a function, with nesting links."""

    def __init__(self, cfg: CFG, domtree: DominatorTree) -> None:
        self.cfg = cfg
        self.loops: dict[str, Loop] = {}
        reachable = set(domtree.rpo)
        for src, dst in cfg.edges():
            if src in reachable and dst in reachable and domtree.dominates(dst, src):
                loop = self.loops.setdefault(dst, Loop(header=dst))
                loop.latches.append(src)
        for loop in self.loops.values():
            loop.blocks = natural_loop(loop.header, loop.latches, cfg.preds)
        self._link_nesting(domtree)

    def _link_nesting(self, domtree: DominatorTree) -> None:
        # The parent of a loop is the smallest other loop strictly
        # containing its header.
        by_size = sorted(self.loops.values(), key=lambda l: len(l.blocks))
        for loop in by_size:
            for candidate in by_size:
                if candidate is loop:
                    continue
                if loop.header in candidate.blocks and candidate.header != loop.header:
                    if loop.parent is None or len(candidate.blocks) < len(
                        loop.parent.blocks
                    ):
                        loop.parent = candidate

    # ------------------------------------------------------------------
    def loop_of_header(self, label: str) -> Loop | None:
        return self.loops.get(label)

    def innermost_containing(self, label: str) -> Loop | None:
        best: Loop | None = None
        for loop in self.loops.values():
            if label in loop.blocks:
                if best is None or len(loop.blocks) < len(best.blocks):
                    best = loop
        return best

    def loop_depth(self, label: str) -> int:
        loop = self.innermost_containing(label)
        return loop.depth if loop is not None else 0

    def __iter__(self):
        return iter(self.loops.values())

    def __len__(self) -> int:
        return len(self.loops)
