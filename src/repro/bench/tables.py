"""Regeneration of the paper's Tables 1 and 2.

For each benchmark the harness runs the paper's three compiles —
A: SSAPRE (safe, no profile), B: SSAPREsp (loop speculation, no profile),
C: MC-SSAPRE (optimal speculation, train profile) — measures the ref-input
dynamic cost, and prints the same row format as the paper:

    Benchmark | A | B | C | (A-C)/A | (B-C)/B

The absolute unit is weighted dynamic operations, not seconds (see
DESIGN.md §6); the *shape* — C fastest nearly everywhere, positive average
speedups, CFP's B closer to C than CINT's — is what reproduces.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bench.workloads import Workload, load_workload
from repro.core.mcssapre.driver import MCPREResult as MCSSAPREResult
from repro.parallel import parallel_map
from repro.pipeline import run_experiment


@dataclass
class TableRow:
    benchmark: str
    a_cost: int
    b_cost: int
    c_cost: int
    efg_sizes: list[int] = field(default_factory=list)

    @property
    def speedup_a(self) -> float:
        """(A - C) / A, as a fraction."""
        return (self.a_cost - self.c_cost) / self.a_cost if self.a_cost else 0.0

    @property
    def speedup_b(self) -> float:
        return (self.b_cost - self.c_cost) / self.b_cost if self.b_cost else 0.0


@dataclass
class Table:
    title: str
    rows: list[TableRow] = field(default_factory=list)

    @property
    def average_speedup_a(self) -> float:
        return sum(r.speedup_a for r in self.rows) / len(self.rows)

    @property
    def average_speedup_b(self) -> float:
        return sum(r.speedup_b for r in self.rows) / len(self.rows)

    def render(self) -> str:
        header = (
            f"{'Benchmark':<12} {'A. SSAPRE':>10} {'B. SSAPREsp':>12} "
            f"{'C. MC-SSAPRE':>13} {'(A-C)/A':>9} {'(B-C)/B':>9}"
        )
        lines = [self.title, "=" * len(header), header, "-" * len(header)]
        for row in self.rows:
            lines.append(
                f"{row.benchmark:<12} {row.a_cost:>10} {row.b_cost:>12} "
                f"{row.c_cost:>13} {row.speedup_a:>8.2%} {row.speedup_b:>8.2%}"
            )
        lines.append("-" * len(header))
        lines.append(
            f"{'Average':<12} {'':>10} {'':>12} {'':>13} "
            f"{self.average_speedup_a:>8.2%} {self.average_speedup_b:>8.2%}"
        )
        return "\n".join(lines)


def measure_workload(workload: Workload) -> TableRow:
    """Run the A/B/C protocol on one benchmark."""
    experiment = run_experiment(
        workload.program.func,
        workload.train_args,
        workload.ref_args,
        variants=("ssapre", "ssapre-sp", "mc-ssapre"),
    )
    mc = experiment.measurements["mc-ssapre"].compiled.pre_result
    sizes = mc.efg_sizes() if isinstance(mc, MCSSAPREResult) else []
    return TableRow(
        benchmark=workload.name,
        a_cost=experiment.cost("ssapre"),
        b_cost=experiment.cost("ssapre-sp"),
        c_cost=experiment.cost("mc-ssapre"),
        efg_sizes=sizes,
    )


def measure_named(name: str) -> TableRow:
    """Load one named benchmark and measure it (picklable worker)."""
    return measure_workload(load_workload(name))


def build_table(names: tuple[str, ...], title: str, jobs: int = 1) -> Table:
    """Measure ``names`` (``jobs > 1`` fans benchmarks over processes).

    Each worker rebuilds its workload from the name — generation is
    deterministic, so the rows are identical to a sequential run and
    arrive in suite order regardless of which process finishes first.
    """
    return Table(title=title, rows=parallel_map(measure_named, names, jobs=jobs))
