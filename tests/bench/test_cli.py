"""The paper's artifacts through ``python -m repro.perf --only``.

One quick run of the five paper sections on two small programs (sjeng
for CINT, tonto for CFP; the MC-PRE sections on tonto alone) and a
two-point Section 3.3 sweep.
"""

import contextlib
import io
import json

import pytest

from repro.perf import paper
from repro.perf.cli import main

PAPER_SECTIONS = ("tables", "sec4", "ablations", "sec33", "passes")


@pytest.fixture(scope="module")
def paper_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("paper") / "BENCH.json"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(paper, "QUICK_CINT", ("sjeng",))
        mp.setattr(paper, "QUICK_CFP", ("tonto",))
        mp.setattr(paper, "SLOW_MCPRE", ("sjeng",))
        mp.setattr(paper, "SEC33_SIZES", (3, 5))
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            only = [arg for name in PAPER_SECTIONS for arg in ("--only", name)]
            rc = main(["--quick", "--out", str(out), *only])
    return rc, text.getvalue(), json.loads(out.read_text())


def run_cli(capsys, *argv) -> str:
    assert main(list(argv)) == 0
    return capsys.readouterr().out


class TestCLI:
    def test_table1_subset(self, paper_run):
        rc, out, record = paper_run
        assert rc == 0 and record["ok"] is True
        assert "Table 1" in out
        assert "sjeng" in out and "tonto" in out
        assert "Average" in out
        assert record["tables"]["table1"]["rows"][0]["benchmark"] == "sjeng"

    def test_fig9_subset(self, paper_run):
        _, out, _ = paper_run
        assert "Figure 9" in out and "Figure 10" in out
        assert "normalised" in out

    def test_fig11_subset(self, paper_run):
        _, out, record = paper_run
        assert "EFG size distribution" in out
        assert "min size: 4" in out
        assert record["tables"]["fig11"]["minimum"] == 4

    def test_sec4_subset(self, paper_run):
        _, out, record = paper_run
        assert "flow-network sizes" in out
        (row,) = record["sec4"]["programs"]
        assert row["name"] == "tonto"
        assert row["mc_ssapre_cost"] == row["mc_pre_cost"]

    def test_ablations_subset(self, paper_run):
        _, out, record = paper_run
        assert "ablations.lifetime.programs:" in out
        assert "ablations.size.programs:" in out
        ablations = record["ablations"]
        assert [r["name"] for r in ablations["lifetime"]["programs"]] == [
            "sjeng", "tonto",
        ]
        assert [r["name"] for r in ablations["profiles"]["programs"]] == [
            "tonto",
        ]
        assert all(ablations["gates"].values())

    def test_sec33_subset(self, paper_run):
        _, out, record = paper_run
        assert "sec33.sizes:" in out
        assert [p["region_length"] for p in record["sec33"]["sizes"]] == [3, 5]

    def test_every_section_recorded_as_quick(self, paper_run):
        _, _, record = paper_run
        assert set(record["section_runs"]) == set(PAPER_SECTIONS)
        assert all(run["quick"] for run in record["section_runs"].values())

    def test_unknown_artifact_rejected(self):
        with pytest.raises(SystemExit):
            main(["--only", "table7"])

    def test_passes_artifact(self, paper_run):
        _, out, _ = paper_run
        assert "PassReport: bwaves [mc-ssapre]" in out
        assert "construct-ssa" in out
        assert "clone" in out and "deepcopy" in out
        assert "cache by analysis" in out
        # The iterative twin's per-round statistics.
        assert "PassReport: bwaves [mc-ssapre-iter]" in out
        assert "rounds: r1:" in out

    def test_passes_artifact_json(self, paper_run):
        _, _, record = paper_run
        data = record["passes"]
        assert data[0]["benchmark"] == "bwaves"
        report = next(
            r for r in data[0]["reports"] if r["variant"] == "ssapre"
        )
        names = [p["pass"] for p in report["passes"]]
        assert names == ["construct-ssa", "ssapre", "destruct-ssa"]
        # The demonstrated cache reuse: the PRE stage recomputes nothing.
        pre = report["passes"][1]
        assert pre["cache_hits"] >= 3 and pre["cache_misses"] == 0

    @pytest.mark.parametrize("solver", ["mincut", "lospre", "auto"])
    def test_passes_artifact_solver_flag(self, capsys, tmp_path, solver):
        out = run_cli(
            capsys, "--only", "passes", "--solver", solver, "--json",
            "--out", str(tmp_path / "BENCH.json"),
        )
        data = json.loads(out)["passes"]
        report = next(
            r for r in data[0]["reports"] if r["variant"] == "mc-ssapre"
        )
        pre = next(p for p in report["passes"] if p["pass"] == "mc-ssapre")
        assert pre["payload"]["solver_requested"] == solver
        # "auto" resolves per function; forced names are used verbatim.
        expected = {"mincut", "lospre"} if solver == "auto" else {solver}
        assert pre["payload"]["solver"] in expected

    def test_unknown_solver_rejected(self):
        with pytest.raises(SystemExit):
            main(["--only", "passes", "--solver", "simplex"])
