"""Tests for the table/figure harness (on a small benchmark subset)."""

import pytest

from repro.bench.comparison import compare_workload, render_comparison
from repro.bench.figures import EFGSizeDistribution, figure9, figure11
from repro.bench.tables import Table, build_table


@pytest.fixture(scope="module")
def small_table() -> Table:
    return build_table(("mcf", "sjeng"), "test table")


class TestTables:
    def test_rows_and_costs(self, small_table):
        assert [r.benchmark for r in small_table.rows] == ["mcf", "sjeng"]
        for row in small_table.rows:
            assert row.a_cost > 0 and row.b_cost > 0 and row.c_cost > 0

    def test_speedup_formulas(self, small_table):
        row = small_table.rows[0]
        assert row.speedup_a == pytest.approx(
            (row.a_cost - row.c_cost) / row.a_cost
        )
        assert row.speedup_b == pytest.approx(
            (row.b_cost - row.c_cost) / row.b_cost
        )

    def test_render_contains_paper_columns(self, small_table):
        text = small_table.render()
        assert "A. SSAPRE" in text
        assert "B. SSAPREsp" in text
        assert "C. MC-SSAPRE" in text
        assert "(A-C)/A" in text and "(B-C)/B" in text
        assert "Average" in text

    def test_efg_sizes_recorded(self, small_table):
        assert any(row.efg_sizes for row in small_table.rows)


class TestFigures:
    def test_bar_chart_series_normalised(self, small_table):
        chart = figure9(small_table)
        for name, a, b, c in chart.series():
            assert a == 1.0
            assert b > 0 and c > 0

    def test_bar_chart_renders(self, small_table):
        text = figure9(small_table).render()
        assert "normalised" in text
        assert "mcf" in text

    def test_efg_distribution_statistics(self):
        dist = EFGSizeDistribution(sizes=[4, 4, 4, 5, 6, 10, 50])
        assert dist.minimum == 4
        assert dist.maximum == 50
        assert dist.share_at(4) == pytest.approx(3 / 7)
        assert dist.cumulative_at_most(10) == pytest.approx(6 / 7)
        assert dist.total == 7

    def test_efg_distribution_render(self):
        dist = EFGSizeDistribution(sizes=[4] * 10 + [7, 30, 120])
        text = dist.render()
        assert "min size: 4" in text
        assert "exactly 4 nodes" in text

    def test_figure11_collects_from_tables(self, small_table):
        dist = figure11([small_table])
        assert dist.total == sum(len(r.efg_sizes) for r in small_table.rows)
        if dist.total:
            assert dist.minimum >= 4


class TestComparison:
    def test_compare_workload(self):
        comparison = compare_workload("mcf")
        # Both optimal: identical measured cost under the matching profile.
        assert comparison.mc_ssapre_cost == comparison.mc_pre_cost
        if comparison.efg_nodes and comparison.mcpre_nodes:
            assert min(comparison.efg_nodes) >= 4

    def test_render_comparison(self):
        text = render_comparison([compare_workload("tonto").row()])
        assert "tonto" in text
        assert "effort ratio" in text


class TestParallelTable:
    def test_jobs2_rows_match_sequential(self, small_table):
        parallel = build_table(("mcf", "sjeng"), "test table", jobs=2)
        assert [
            (r.benchmark, r.a_cost, r.b_cost, r.c_cost, r.efg_sizes)
            for r in parallel.rows
        ] == [
            (r.benchmark, r.a_cost, r.b_cost, r.c_cost, r.efg_sizes)
            for r in small_table.rows
        ]
