"""Loop-based conservative speculation (the SSAPREsp baseline).

Lo et al. [18] extended SSAPRE with a profile-independent form of
speculation: computations that are invariant in a loop are hoisted to the
loop header even when the loop may execute zero iterations, because the
expected win inside the loop outweighs one evaluation at the header.  The
paper benchmarks this variant as **SSAPREsp** (compile B).

In FRG terms the extension is a single relaxation: a Φ at a loop header is
treated as down-safe when the expression is computed inside that loop with
the Φ's own version — i.e. the value the header Φ would carry is exactly
the value the loop keeps recomputing.  Trapping expressions are never
speculated (paper Section 2).
"""

from __future__ import annotations

from repro.analysis.loops import LoopForest
from repro.core.ssapre.frg import FRG, propagate
from repro.ir.memory import key_may_trap


def apply_loop_speculation(frg: FRG, forest: LoopForest | None = None) -> int:
    """Upgrade ``down_safe`` at qualifying loop-header Φs.

    Returns the number of Φs whose down-safety was speculatively granted.
    Must run after :func:`~repro.core.ssapre.downsafety.compute_down_safety`
    and before WillBeAvail.
    """
    if key_may_trap(frg.expr.key, frg.func.arrays):
        return 0
    if forest is None:
        forest = LoopForest(frg.cfg, frg.domtree)
    if not len(forest):
        return 0

    upgraded = 0
    for phi in frg.phis:
        if phi.down_safe:
            continue
        loop = forest.loop_of_header(phi.label)
        if loop is None:
            continue
        if _used_inside_loop(frg, phi, loop.blocks):
            phi.down_safe = True
            upgraded += 1
    return upgraded


def _used_inside_loop(frg: FRG, phi, loop_blocks: set[str]) -> bool:
    """Is the Φ's version computed by a real occurrence inside the loop,
    directly or after flowing through Φs inside the loop?"""
    carriers = propagate([phi], lambda operand: operand.phi.label in loop_blocks)
    return any(
        occ.label in loop_blocks and occ.def_node in carriers
        for occ in frg.real_occs
    )
