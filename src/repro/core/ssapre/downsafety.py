"""SSAPRE step 3 — DownSafety.

A Φ is *down-safe* iff the expression is fully anticipated at the Φ: along
every control-flow path leaving it, the expression is computed before any
of its operands is redefined and before program exit.  Safe PRE may only
insert at down-safe points (Kennedy's safety criterion [13]); speculative
PRE exists precisely to go beyond this predicate.

Down-safety is, by definition, CFG anticipability at the Φ's program point
(immediately after the block's variable phis), so we compute it from the
bit-vector anticipability solution of
:func:`repro.analysis.dataflow.solve_pre_dataflow`.  That formulation is
exact on SSA input for this downward problem (see the module docstring of
``repro.analysis.dataflow``) and doubles as the oracle against which the
property-based tests check the rest of the pipeline.
"""

from __future__ import annotations

from repro.analysis.dataflow import PREDataflow, solve_pre_dataflow
from repro.core.ssapre.frg import FRG


def compute_down_safety(frg: FRG, dataflow: PREDataflow | None = None) -> None:
    """Set ``down_safe`` on every Φ of *frg*."""
    if dataflow is None:
        dataflow = solve_pre_dataflow(frg.func, [frg.expr.key])
    key = frg.expr.key
    for phi in frg.phis:
        # ant_postphi is anticipability at the point immediately after the
        # block's variable phis — exactly where the hypothetical Φ lives.
        phi.down_safe = key in dataflow.ant_postphi[phi.label]
