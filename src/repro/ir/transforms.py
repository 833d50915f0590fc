"""CFG-normalising transforms required by the PRE algorithms.

* :func:`split_critical_edges` — both SSAPRE and MC-SSAPRE assume all
  critical edges have been removed by inserting empty blocks (paper,
  Section 3.1.2), so that insertions at a Φ operand can always be placed at
  the exit of the corresponding predecessor block.
* :func:`restructure_while_loops` — the traditional while→do-while
  rotation of paper Figure 1.  The paper's compiler "always restructures
  while loops" so that loop-invariant code motion inside safe SSAPRE needs
  no speculation; our pipeline applies the same normalisation before SSA
  construction.
"""

from __future__ import annotations

import heapq

from repro.analysis.dominators import DominatorTree
from repro.analysis.loops import LoopForest, natural_loop
from repro.ir.cfg import CFG
from repro.ir.function import Function, clone_statement, clone_terminator
from repro.ir.instructions import CondJump, Jump, retarget


def split_critical_edges(func: Function) -> list[str]:
    """Insert an empty block on every critical edge.

    Returns the labels of the inserted blocks.  Phi arguments in the edge
    target are re-keyed to the new block.  Safe on SSA and non-SSA input.
    """
    cfg = CFG(func)
    critical = [
        (src, dst) for src, dst in cfg.edges() if cfg.is_critical_edge(src, dst)
    ]
    inserted: list[str] = []
    for src, dst in critical:
        mid = func.add_block(func.fresh_label("split"))
        mid.terminator = Jump(dst)
        retarget(func.blocks[src].terminator, dst, mid.label)
        for phi in func.blocks[dst].phis:
            if src in phi.args:
                phi.args[mid.label] = phi.args.pop(src)
        inserted.append(mid.label)
    return inserted


def restructure_while_loops(func: Function) -> list[str]:
    """Rotate while loops into do-while form (paper Figure 1).

    For each natural loop whose header both tests the exit condition and is
    entered from outside, the header is cloned into an *entry test* block;
    outside predecessors are redirected to the clone.  After the transform
    the original header is only reached from inside the loop, i.e. the body
    executes at least once per entry that passes the test — exactly the
    do-while shape that lets safe PRE hoist invariants without speculation.

    Loops are rotated one at a time, each time the one with the smallest
    header label among those not yet rotated and currently eligible; this
    is the fixpoint "rebuild CFG, dominators and loops, rotate the first
    eligible loop, repeat".  The analyses are built once and two
    structures are kept exact across rotations instead: predecessor sets
    and a header → loop-blocks map.  Rotating header ``h`` with inside
    successor ``s``, exit ``x``, clone ``c`` and outside predecessors
    ``P`` splits ``h`` in two, which changes the loop structure in only
    three places:

    * ``preds[c] = P``; ``P`` leaves ``preds[h]``; ``c`` joins
      ``preds[s]`` and ``preds[x]``;
    * ``c`` joins every other loop whose blocks contain ``h``;
    * ``h`` now dominates only itself, so its loop moves to header ``s``
      (absorbing any loop already headed there).  Its latches are the
      reachable predecessors of ``s`` other than ``c``, and its blocks
      are re-collected from them: the same set ``h``'s loop had, less
      any unreachable block that reached its latches only through
      ``s``.  A self-loop (``s == h``) keeps its header.

    No other loop changes eligibility, so a loop found ineligible is
    revisited only if a rotation moves a loop onto its header.  A loop can
    move back onto a header rotated earlier (``h`` → ``s`` → ``h`` in a
    two-block loop); like the fixpoint, each header is rotated only once.
    ``tests/ir/test_restructure_oracle.py`` pins the output, the entry and
    the clone labels byte-identical to the rebuild-every-rotation fixpoint.

    Must run **before** SSA construction (cloned blocks duplicate plain
    assignments; phis cannot be naively cloned).  Returns the clone labels.
    """
    for block in func:
        if block.phis:
            raise ValueError("restructure_while_loops requires non-SSA input")

    cfg = CFG(func)
    domtree = DominatorTree(cfg)
    loops = {loop.header: loop.blocks for loop in LoopForest(cfg, domtree)}
    preds = {label: set(labels) for label, labels in cfg.preds.items()}
    reachable = set(domtree.rpo)

    clones: list[str] = []
    done: set[str] = set()  # headers already rotated once
    pending = sorted(loops)  # a sorted list is a valid heap
    while pending:
        label = heapq.heappop(pending)
        blocks = loops.get(label)
        if blocks is None or label in done:
            continue
        header = func.blocks[label]
        if not isinstance(header.terminator, CondJump):
            continue
        succs = set(header.successors())
        exits = succs - blocks
        insides = succs & blocks
        if len(exits) != 1 or len(insides) != 1:
            continue
        outside_preds = preds[label] - blocks
        if not outside_preds and label != func.entry:
            continue
        clone = func.add_block(func.fresh_label(f"{label}_test"))
        clone.body = [clone_statement(stmt) for stmt in header.body]
        clone.terminator = clone_terminator(header.terminator)
        for pred in outside_preds:
            retarget(func.blocks[pred].terminator, label, clone.label)
        if label == func.entry:
            func.entry = clone.label
        done.add(label)
        clones.append(clone.label)

        (inside,) = insides
        (exit_,) = exits
        preds[clone.label] = outside_preds
        preds[label] -= outside_preds
        preds[inside].add(clone.label)
        preds[exit_].add(clone.label)
        reachable.add(clone.label)
        for other, other_blocks in loops.items():
            if other != label and label in other_blocks:
                other_blocks.add(clone.label)
        if inside != label:
            del loops[label]
            latches = [
                p for p in preds[inside] if p in reachable and p != clone.label
            ]
            loops[inside] = natural_loop(inside, latches, preds)
            heapq.heappush(pending, inside)
    return clones
