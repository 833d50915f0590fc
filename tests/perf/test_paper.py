"""The paper sections' gates, each on a passing and a failing input.

Every input here is fabricated, so the tests pin the bounds themselves;
``tests/bench/test_cli.py`` runs the sections on real programs.
"""

import json

import pytest

from repro.bench.ablations import LifetimeAblation, LifetimeSide, ProfileAblation
from repro.bench.comparison import SizeComparison
from repro.bench.tables import Table, TableRow
from repro.perf.paper import (
    ablations_record,
    render_sec4,
    render_tables,
    sec4_record,
    sec33_record,
    suite,
    tables_record,
)


def _tables(cint_rows, cfp_rows):
    return tables_record(Table("T1", cint_rows), Table("T2", cfp_rows))


def _good_rows():
    # CINT: (A-C)/A = 10%, (B-C)/B = 5.3%; CFP: 10% and 1.1%, B below A.
    cint = [TableRow("int", 100, 95, 90, [4, 4, 4, 5, 6, 8])]
    cfp = [TableRow("fp1", 100, 91, 90), TableRow("fp2", 100, 91, 90)]
    return cint, cfp


class TestTablesGates:
    def test_good_rows_pass(self):
        record = _tables(*_good_rows())
        assert record["ok"] is True
        assert all(record["gates"].values())
        assert record["fig11"]["histogram"] == {"4": 3, "5": 1, "6": 1, "8": 1}
        json.dumps(record)
        text = render_tables(record)
        for title in ("T1", "T2", "Figure 9", "Figure 10", "Figure 11"):
            assert title in text

    @pytest.mark.parametrize("gate, family, field, value", [
        # C = 1.04 A on one row exceeds the 3% slack.
        ("c_within_a", 0, "c_cost", 104),
        # C above A on every CFP row: no speedup over A there.
        ("a_averages_positive", 1, "c_cost", 102),
        # B already as good as C on CINT.
        ("cint_b_average_positive", 0, "b_cost", 90),
        # C above B on CFP.
        ("cfp_b_average_nonnegative", 1, "b_cost", 89),
        # CFP's (B-C)/B above CINT's: the family asymmetry is lost.
        ("cfp_b_gap_below_cint", 1, "b_cost", 99),
        # A zero-cost bar in Figure 9.
        ("fig9_bars_positive", 0, "b_cost", 0),
        # B at or above A on every CFP program.
        ("fig10_b_below_one", 1, "b_cost", 100),
        # An EFG of 3 nodes is below the Section 5.2 floor.
        ("fig11_minimum_4", 0, "efg_sizes", [3, 4, 4, 4]),
        ("fig11_share_at_4", 0, "efg_sizes", [5, 5, 5, 5, 5, 5, 5, 5, 5]),
        ("fig11_at_most_10", 0, "efg_sizes", [4, 11, 11, 11, 11, 11, 11]),
        ("fig11_at_most_50", 0, "efg_sizes", [4, 4, 4, 4, 60]),
    ])
    def test_each_gate_fails_on_its_counterexample(
        self, gate, family, field, value
    ):
        rows = _good_rows()
        for row in rows[family]:
            setattr(row, field, value)
        record = _tables(*rows)
        assert record["gates"][gate] is False
        assert record["ok"] is False
        assert gate in render_tables(record).splitlines()[-1]


def _comparison(name="p", efg=(4, 6), mcpre=(20, 30), costs=(10, 10)):
    return SizeComparison(
        name=name,
        efg_nodes=list(efg), efg_edges=[n + 1 for n in efg],
        mcpre_nodes=list(mcpre), mcpre_edges=[n + 1 for n in mcpre],
        mc_ssapre_cost=costs[0], mc_pre_cost=costs[1],
    )


class TestSec4Gates:
    def test_smaller_networks_and_equal_optima_pass(self):
        record = sec4_record([_comparison(), _comparison("q", efg=())])
        assert record["ok"] is True
        assert record["programs"][0]["efg_avg_nodes"] == 5.0
        assert "Section 4" in render_sec4(record)

    @pytest.mark.parametrize("gate, comparison", [
        ("equal_optima", _comparison(costs=(11, 10))),
        ("smaller_networks", _comparison(efg=(40,), mcpre=(20, 30))),
        ("smaller_networks", _comparison(mcpre=())),
        # Average EFG smaller, but total effort not halved.
        ("effort_halved", _comparison(efg=(4, 40), mcpre=(20, 30))),
    ])
    def test_each_gate_fails_on_its_counterexample(self, gate, comparison):
        record = sec4_record([_comparison(), comparison])
        assert record["gates"][gate] is False
        assert record["ok"] is False


def _lifetime(name="p", late=(5, 50, 10), early=(8, 80, 10)):
    return LifetimeAblation(
        name, LifetimeSide(*late), LifetimeSide(*early)
    )


class TestAblationsGates:
    def _record(self, lifetime=None, profiles=None, sizes=None):
        return ablations_record(
            lifetime or [_lifetime(), _lifetime("q", early=(5, 50, 10))],
            profiles or [ProfileAblation("p", True, True)],
            sizes or [("p", 10, 8), ("q", 7, 7)],
        )

    def test_good_inputs_pass(self):
        record = self._record()
        assert record["ok"] is True
        assert record["lifetime"]["late_live_range"] == 10
        assert record["lifetime"]["early_live_range"] == 13
        assert record["lifetime"]["programs"][0] == {
            "name": "p", "late_live_range": 5, "late_pressure": 50,
            "late_cost": 10, "early_live_range": 8, "early_pressure": 80,
            "early_cost": 10,
        }
        assert (record["size"]["before"], record["size"]["after"]) == (17, 15)
        json.dumps(record)

    @pytest.mark.parametrize("gate, kwargs", [
        # The cut side changed the optimum.
        ("lifetime", {"lifetime": [_lifetime(late=(5, 50, 9))]}),
        # A later cut lengthened one program's live ranges.
        ("lifetime", {"lifetime": [
            _lifetime(), _lifetime("q", late=(6, 50, 10), early=(5, 50, 10)),
        ]}),
        # A later cut raised one program's weighted pressure.
        ("lifetime", {"lifetime": [
            _lifetime(), _lifetime("q", late=(5, 51, 10), early=(5, 50, 10)),
        ]}),
        # No strict win over the set.
        ("lifetime", {"lifetime": [_lifetime(early=(5, 50, 10))]}),
        ("profiles", {"profiles": [ProfileAblation("p", False, True)]}),
        ("profiles", {"profiles": [ProfileAblation("p", True, False)]}),
        ("size", {"sizes": [("p", 10, 8), ("q", 7, 8)]}),
        ("size", {"sizes": [("p", 10, 10)]}),
    ])
    def test_each_gate_fails_on_its_counterexample(self, gate, kwargs):
        record = self._record(**kwargs)
        assert record["gates"][gate] is False
        assert record["ok"] is False


def _point(region_length, statements, classes, compile_s):
    return {
        "region_length": region_length, "statements": statements,
        "classes": classes, "compile_s": compile_s, "unit_ns": 0.0,
        "largest_efg": 4,
    }


class TestSec33Gate:
    def test_flat_unit_cost_passes(self):
        record = sec33_record([
            _point(3, 100, 10, 0.001), _point(12, 10_000, 1000, 35.0),
        ])
        assert record["unit_ratio"] == 3.5
        assert record["ok"] is True

    def test_quadratic_unit_cost_fails(self):
        record = sec33_record([
            _point(3, 100, 10, 0.001), _point(12, 10_000, 1000, 40.0),
        ])
        assert record["ok"] is False


class TestProgramSets:
    def test_quick_sets_and_the_full_suite(self):
        assert suite(True) == (
            "perlbench", "mcf", "sjeng", "omnetpp",
            "milc", "dealII", "tonto", "sphinx3",
        )
        assert suite(True, mcpre=True) == (
            "sjeng", "milc", "dealII", "tonto", "sphinx3",
        )
        assert len(suite(False)) == len(suite(False, mcpre=True)) == 29
