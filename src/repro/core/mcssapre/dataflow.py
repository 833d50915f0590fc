"""MC-SSAPRE step 3 — sparse data flow on the SSA graph.

Two attributes are solved directly on the FRG, each one
:func:`~repro.core.ssapre.frg.propagate` call in the one-pass style of
[14], linear in the size of the graph:

* **Full availability** (forward, greatest fixpoint).  A Φ's value is
  fully available iff every operand carries the value: a ⊥ operand makes
  it unavailable; an operand whose path crosses a real occurrence
  (``has_real_use``) or that is defined by a real occurrence carries it;
  an operand defined by another Φ carries it iff that Φ is fully
  available.  Insertions where the value is fully available would be
  redundant, so such Φs are excluded from the flow network.

* **Partial anticipability** (backward, least fixpoint).  A Φ's value is
  partially anticipated iff some use of its version is a real occurrence,
  or is an operand of a partially anticipated Φ.  Insertions where the
  value is not partially anticipated would be useless.

Note these are *version-aware* (they see values surviving a renaming
variable phi), which the lexical bit-vector oracle cannot; the property
tests check the sparse results against path enumeration on acyclic CFGs
and against the (one-sided) lexical oracle everywhere.
"""

from __future__ import annotations

from repro.core.ssapre.frg import FRG, PhiNode, propagate


def compute_full_availability(frg: FRG) -> None:
    """Set ``fully_avail`` on every Φ (greatest fixpoint).

    Unavailability starts at the Φs with a ⊥ operand and flows to the
    users of a Φ's value through operands without a crossing real use.
    """
    unavailable = propagate(
        (phi for phi in frg.phis if any(op.is_bottom for op in phi.operands)),
        lambda operand: not operand.has_real_use,
    )
    for phi in frg.phis:
        phi.fully_avail = phi not in unavailable


def compute_partial_anticipability(frg: FRG) -> None:
    """Set ``part_anticipated`` on every Φ (least fixpoint).

    Seeds are the Φs whose version a real occurrence uses — directly, or
    on the path to an operand (``has_real_use``).  An rg_excluded
    occurrence still anticipates the value — it is a real computation
    point; exclusion only means it cannot be a min-cut sink.  The value
    flows backward to the Φs defining every operand, whatever its
    crossing status: even if a real occurrence sits on the path, the
    *value* is anticipated.
    """
    seeds = [
        occ.def_node for occ in frg.real_occs
        if isinstance(occ.def_node, PhiNode)
    ] + [
        op.def_node for phi in frg.phis for op in phi.operands
        if op.has_real_use and isinstance(op.def_node, PhiNode)
    ]
    anticipated = propagate(seeds, lambda operand: True, backward=True)
    for phi in frg.phis:
        phi.part_anticipated = phi in anticipated


def solve_step3(frg: FRG) -> None:
    """Run both analyses (MC-SSAPRE step 3)."""
    compute_full_availability(frg)
    compute_partial_anticipability(frg)
