"""Section-4 comparison harness: MC-SSAPRE vs MC-PRE problem sizes.

The paper argues MC-SSAPRE's flow networks (EFGs, built from the sparse
SSA graph) are much smaller than MC-PRE's (built from the CFG), and that
both algorithms reach the same optimum.  This harness compiles every
benchmark with both and reports, per suite:

* number of non-trivial flow networks formed;
* node/edge count distributions of EFGs vs MC-PRE reduced graphs;
* total min-cut work (sum over networks of V²·E as a crude effort proxy);
* the dynamic cost of each compile on the training input, which must
  agree: under the profile both compiles optimise for, both are optimal.

The ``sec4`` section of ``python -m repro.perf`` runs it over the suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.baselines.mcpre import run_mc_pre
from repro.bench.workloads import load_workload
from repro.core.mcssapre.driver import run_mc_ssapre
from repro.pipeline import prepare
from repro.profiles.interp import run_function
from repro.ssa.construct import construct_ssa
from repro.ssa.destruct import destruct_ssa


@dataclass
class SizeComparison:
    """Problem-size statistics of both algorithms on one workload."""

    name: str
    efg_nodes: list[int] = field(default_factory=list)
    efg_edges: list[int] = field(default_factory=list)
    mcpre_nodes: list[int] = field(default_factory=list)
    mcpre_edges: list[int] = field(default_factory=list)
    mc_ssapre_cost: int = 0
    mc_pre_cost: int = 0

    @staticmethod
    def _effort(nodes: list[int], edges: list[int]) -> int:
        return sum(n * n * e for n, e in zip(nodes, edges))

    @property
    def efg_effort(self) -> int:
        return self._effort(self.efg_nodes, self.efg_edges)

    @property
    def mcpre_effort(self) -> int:
        return self._effort(self.mcpre_nodes, self.mcpre_edges)

    def row(self) -> dict:
        """The JSON summary :func:`render_comparison` prints."""

        def avg(xs: list[int]) -> float:
            return round(sum(xs) / len(xs), 2) if xs else 0.0

        return {
            "name": self.name,
            "efg_networks": len(self.efg_nodes),
            "efg_avg_nodes": avg(self.efg_nodes),
            "efg_max_nodes": max(self.efg_nodes, default=0),
            "mcpre_networks": len(self.mcpre_nodes),
            "mcpre_avg_nodes": avg(self.mcpre_nodes),
            "mcpre_max_nodes": max(self.mcpre_nodes, default=0),
            "efg_effort": self.efg_effort,
            "mcpre_effort": self.mcpre_effort,
            "mc_ssapre_cost": self.mc_ssapre_cost,
            "mc_pre_cost": self.mc_pre_cost,
        }


def compare_workload(name: str) -> SizeComparison:
    """Compile one benchmark with MC-SSAPRE and MC-PRE and compare.

    Both compiles are measured on the training input, whose profile
    they optimise for.
    """
    workload = load_workload(name)
    prepared = prepare(workload.program.func)
    train = run_function(prepared, workload.train_args)

    ssa_version = prepare(workload.program.func)
    construct_ssa(ssa_version)
    mc_ssa_result = run_mc_ssapre(ssa_version, train.profile.nodes_only())
    destruct_ssa(ssa_version)
    mc_ssa_run = run_function(ssa_version, workload.train_args)

    cfg_version = prepare(workload.program.func)
    mc_pre_result = run_mc_pre(cfg_version, train.profile)
    mc_pre_run = run_function(cfg_version, workload.train_args)

    return SizeComparison(
        name=name,
        efg_nodes=[stat.nodes for stat in mc_ssa_result.efg_stats],
        efg_edges=[stat.edges for stat in mc_ssa_result.efg_stats],
        mcpre_nodes=[stat.nodes for stat in mc_pre_result.stats],
        mcpre_edges=[stat.edges for stat in mc_pre_result.stats],
        mc_ssapre_cost=mc_ssa_run.dynamic_cost,
        mc_pre_cost=mc_pre_run.dynamic_cost,
    )


def render_comparison(rows: list[dict]) -> str:
    """Render :meth:`SizeComparison.row` summaries as the Section 4 table."""
    header = (
        f"{'Benchmark':<12} {'#EFG':>5} {'EFG avg V':>10} {'EFG max V':>10} "
        f"{'#CFGnet':>8} {'CFG avg V':>10} {'CFG max V':>10} "
        f"{'effort ratio':>13}"
    )
    lines = [
        "Section 4: MC-SSAPRE (EFG) vs MC-PRE (CFG) flow-network sizes",
        "=" * len(header),
        header,
        "-" * len(header),
    ]
    for r in rows:
        ratio = (
            r["mcpre_effort"] / r["efg_effort"]
            if r["efg_effort"] else float("inf")
        )
        lines.append(
            f"{r['name']:<12} {r['efg_networks']:>5} "
            f"{r['efg_avg_nodes']:>10.1f} {r['efg_max_nodes']:>10} "
            f"{r['mcpre_networks']:>8} {r['mcpre_avg_nodes']:>10.1f} "
            f"{r['mcpre_max_nodes']:>10} {ratio:>12.1f}x"
        )
    return "\n".join(lines)
