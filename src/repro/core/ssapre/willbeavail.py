"""SSAPRE step 4 — WillBeAvail (the safe, non-speculative version).

Computes, per Kennedy et al. [14]:

* ``can_be_avail(Φ)`` — the expression could be made available at the Φ by
  safe insertions alone: false when a ⊥ operand (or an operand whose value
  would itself require an unsafe insertion) appears at a non-down-safe Φ.
* ``later(Φ)`` — availability at the Φ could be postponed: no path into
  the Φ already computes the expression.  Inserting at "later" Φs would
  lengthen temporary live ranges without reducing computations.
* ``will_be_avail = can_be_avail ∧ ¬later``.

Finally the ``insert`` flag is set on every operand of a will-be-avail Φ
that needs a computation placed at the end of its predecessor block.

MC-SSAPRE replaces this entire step (and DownSafety) with its min-cut
steps 3–8; both paths converge on identical ``will_be_avail``/``insert``
semantics, which is why Finalize and CodeMotion are shared.
"""

from __future__ import annotations

from repro.core.ssapre.frg import FRG, PhiNode, propagate


def compute_will_be_avail(frg: FRG) -> None:
    """Fill can_be_avail / later / will_be_avail / operand insert flags."""
    # Un-availability starts at non-down-safe Φs with a ⊥ operand and
    # reaches the non-down-safe users of a Φ's value through operands
    # without a crossing real use.
    cannot = propagate(
        (
            phi for phi in frg.phis
            if not phi.down_safe and any(op.is_bottom for op in phi.operands)
        ),
        lambda operand: not operand.has_real_use and not operand.phi.down_safe,
    )
    for phi in frg.phis:
        phi.can_be_avail = phi not in cannot
    # Availability that cannot be postponed starts at can-be-avail Φs
    # with an operand crossing a real occurrence and reaches every
    # can-be-avail user.
    not_later = propagate(
        (
            phi for phi in frg.phis
            if phi.can_be_avail and any(op.has_real_use for op in phi.operands)
        ),
        lambda operand: operand.phi.can_be_avail,
    )
    for phi in frg.phis:
        phi.later = phi.can_be_avail and phi not in not_later
        phi.will_be_avail = phi.can_be_avail and not phi.later
    _mark_inserts(frg)


def _mark_inserts(frg: FRG) -> None:
    for phi in frg.phis:
        for operand in phi.operands:
            operand.insert = False
    for phi in frg.phis:
        if not phi.will_be_avail:
            continue
        for operand in phi.operands:
            if operand.is_bottom:
                operand.insert = True
            elif not operand.has_real_use:
                definer = operand.def_node
                if isinstance(definer, PhiNode) and not definer.will_be_avail:
                    operand.insert = True
