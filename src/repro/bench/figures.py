"""Regeneration of the paper's Figures 9, 10 and 11 (text rendering).

* **Figure 9 / Figure 10** — the Table 1 / Table 2 data as bar charts of
  running time normalised to safe SSAPRE = 1.0 (one group of three bars
  per benchmark).
* **Figure 11** — the distribution of EFG sizes over all 29 benchmarks:
  a histogram of node counts plus the cumulative percentage curve, with
  the paper's headline statistics (minimum size 4, share of EFGs at
  exactly 4 nodes, cumulative share ≤ 10/50/100 nodes).

Everything renders as plain text so the harness has no plotting
dependency; each figure also exposes its raw series for tests and for
anyone who wants to replot.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bench.tables import Table, TableRow


@dataclass
class BarChart:
    """Normalised running-time chart (Figures 9 and 10)."""

    title: str
    rows: list[TableRow]

    def series(self) -> list[tuple[str, float, float, float]]:
        """(benchmark, A=1.0, B/A, C/A) per row."""
        out = []
        for row in self.rows:
            a = row.a_cost or 1
            out.append((row.benchmark, 1.0, row.b_cost / a, row.c_cost / a))
        return out

    def render(self, width: int = 40) -> str:
        lines = [self.title, "=" * max(len(self.title), 20)]
        lines.append(f"{'':14} normalised running time (A. SSAPRE = 1.0)")
        for name, a, b, c in self.series():
            peak = max(a, b, c, 1.0)
            for label, value in (("A", a), ("B", b), ("C", c)):
                bar = "#" * max(1, round(value / peak * width))
                lines.append(f"{name:>12} {label} |{bar:<{width}}| {value:.3f}")
            lines.append("")
        return "\n".join(lines)


def figure9(table1: Table) -> BarChart:
    """Paper Figure 9: CINT2006 normalised performance comparison."""
    return BarChart(
        title="Figure 9: CINT2006 performance, normalised to safe SSAPRE",
        rows=table1.rows,
    )


def figure10(table2: Table) -> BarChart:
    """Paper Figure 10: CFP2006 normalised performance comparison."""
    return BarChart(
        title="Figure 10: CFP2006 performance, normalised to safe SSAPRE",
        rows=table2.rows,
    )


@dataclass
class EFGSizeDistribution:
    """Figure 11: histogram + cumulative percentages of EFG sizes."""

    sizes: list[int] = field(default_factory=list)

    @property
    def total(self) -> int:
        return len(self.sizes)

    def histogram(self) -> dict[int, int]:
        hist: dict[int, int] = {}
        for size in self.sizes:
            hist[size] = hist.get(size, 0) + 1
        return dict(sorted(hist.items()))

    def share_at(self, size: int) -> float:
        if not self.sizes:
            return 0.0
        return sum(1 for s in self.sizes if s == size) / self.total

    def cumulative_at_most(self, size: int) -> float:
        if not self.sizes:
            return 0.0
        return sum(1 for s in self.sizes if s <= size) / self.total

    @property
    def minimum(self) -> int:
        return min(self.sizes) if self.sizes else 0

    @property
    def maximum(self) -> int:
        return max(self.sizes) if self.sizes else 0

    def render(self, width: int = 50) -> str:
        hist = self.histogram()
        if not hist:
            return "Figure 11: no EFGs were formed"
        peak = max(hist.values())
        lines = [
            "Figure 11: EFG size distribution over the measured benchmarks",
            "=" * 62,
            f"total EFGs: {self.total}   min size: {self.minimum}   "
            f"max size: {self.maximum}",
            "",
            f"{'nodes':>6} {'count':>7}  {'cum%':>7}",
        ]
        # Bucket the tail so the chart stays readable.
        buckets: list[tuple[str, int, float]] = []
        for size in sorted(hist):
            if size <= 12:
                buckets.append(
                    (str(size), hist[size], self.cumulative_at_most(size))
                )
        for lo, hi in ((13, 20), (21, 50), (51, 100), (101, 10**9)):
            count = sum(c for s, c in hist.items() if lo <= s <= hi)
            if count:
                label = f"{lo}-{hi}" if hi < 10**9 else f">{lo - 1}"
                buckets.append((label, count, self.cumulative_at_most(hi)))
        for label, count, cum in buckets:
            bar = "#" * max(1, round(count / peak * width)) if count else ""
            lines.append(f"{label:>6} {count:>7}  {cum:>6.1%} |{bar}")
        lines.append("")
        lines.append(
            f"share of EFGs with exactly 4 nodes: {self.share_at(4):.1%}"
        )
        for cutoff in (10, 50, 100):
            lines.append(
                f"EFGs with <= {cutoff} nodes: "
                f"{self.cumulative_at_most(cutoff):.2%}"
            )
        return "\n".join(lines)


def figure11(tables: list[Table]) -> EFGSizeDistribution:
    """Collect EFG sizes recorded during the Table 1 + Table 2 runs."""
    dist = EFGSizeDistribution()
    for table in tables:
        for row in table.rows:
            dist.sizes.extend(row.efg_sizes)
    return dist
