"""MC-SSAPRE step 8 — WillBeAvail from the min-cut result (paper Figure 7).

``will_be_avail(Φ)`` must mean: after performing the insertions chosen by
the cut, the expression is fully available at the Φ (Lemma 8).  It is
computed by forward propagation of *un*availability: every Φ starts
optimistically available; a Φ with a ⊥ operand that received no insertion
is reset, and resets propagate forward through operands that neither cross
a real occurrence (``has_real_use``) nor received an insertion.

Computing this attribute (plus the operand ``insert`` flags set in step 7)
is exactly what lets steps 9 and 10 reuse SSAPRE's Finalize and CodeMotion
unchanged.
"""

from __future__ import annotations

from repro.core.ssapre.frg import FRG, propagate


def compute_will_be_avail_from_cut(frg: FRG) -> None:
    """The Compute_will_be_avail / Reset_will_be_avail pair of Figure 7."""
    reset = propagate(
        (
            phi for phi in frg.phis
            if any(op.is_bottom and not op.insert for op in phi.operands)
        ),
        lambda operand: not operand.has_real_use and not operand.insert,
    )
    for phi in frg.phis:
        phi.will_be_avail = phi not in reset
