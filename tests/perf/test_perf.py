"""``python -m repro.perf``: BENCH.json schema, equivalence gate, CLI."""

import json
from pathlib import Path

from repro.perf.bench import (
    BENCH_SCHEMA_VERSION,
    bench_compile,
    bench_maxflow,
    runresult_mismatches,
    scaling_network,
    solver_scaling_text,
)
from repro.perf.cli import main
from repro.perf.sections import SECTION_NAMES, render_record
from repro.profiles.compiled import run_compiled
from repro.profiles.interp import run_function

import pytest

#: The documented BENCH.json schema (docs/PERF.md).  v2 added the
#: "iterative" section; v3 added "serving"; v4 added "solver_scaling",
#: the top-level "solver" knob and the serving solver=auto pin; v5
#: added the serving "adaptation" block; v6 added the serving
#: "cluster" block (sharded multi-process cluster, open-loop); v7
#: added the "memory" section (array-workload suite + the pinned
#: speculative-hoist/aliased-blocked pair); v8 added the "profiling"
#: section (minimum-coverage probe placement + the profile-quality
#: study) and the ``--only`` section filter; v9 replaced the top-level
#: "quick"/"repeat" with per-section "section_runs"; v10 retargeted
#: "profiling" at chord counting; v11 added the paper's sections
#: (tests/perf/test_paper.py).
#: The sections the CLI fixture runs; the paper's sections are tested on
#: smaller program sets in test_paper.py.
ENGINE_SECTIONS = (
    "execution", "compile", "memory", "iterative", "solver_scaling",
    "serving", "maxflow", "profiling",
)
BENCH_KEYS = {
    "schema", "solver", "python", "platform", *ENGINE_SECTIONS,
    "section_runs", "ok", "wall_time_s",
}
PROFILING_KEYS = {
    "workloads", "total_full_events", "total_chord_events",
    "event_ratio", "min_event_ratio", "bounds_ok", "equivalent",
    "sample_period", "quality", "quality_ok", "ok",
}
PROFILING_ROW_KEYS = {
    "name", "blocks", "edges", "chords", "bound", "bound_ok",
    "full_events", "chord_events", "event_ratio", "compiled_s",
    "mismatches",
}
PROFILING_QUALITY_KEYS = {
    "name", "cost_exact", "delta_reconstructed", "delta_sampled",
    "delta_stale", "ok",
}
MEMORY_KEYS = {
    "workloads", "total_reference_s", "total_compiled_s", "speedup",
    "min_speedup", "equivalent", "speculation", "ok",
}
MEMORY_WORKLOAD_KEYS = {
    "name", "steps", "dynamic_cost", "loads", "reference_s",
    "compiled_s", "speedup", "mismatches",
}
SPECULATION_PIN_KEYS = {
    "control_cost", "safe_cost", "mc_cost", "control_loads",
    "safe_loads", "mc_loads", "observables_match", "ok",
}
SERVING_KEYS = {
    "requests", "unique", "cold_s", "warm_s", "cold_auto_s", "auto_ok",
    "speedup", "min_speedup", "equivalent", "hit_rate",
    "expected_hit_rate", "mismatches", "load_rps", "coalescing",
    "adaptation", "cluster", "ok",
}
CLUSTER_KEYS = {
    "workers", "requests", "unique", "single_rps", "offered_rps",
    "achieved_rps", "rps_ratio", "min_rps_ratio", "p99_s", "p99_max_s",
    "mean_s", "max_in_flight", "mismatches", "errors", "timeouts",
    "compiles", "plan_hits", "lock_rehydrates", "race", "ok",
}
RACE_KEYS = {"clients", "compiles", "rehydrates", "agreed", "all_ok", "ok"}
ADAPTATION_KEYS = {
    "warmup", "threshold", "min_samples", "promotions", "drift_events",
    "recompiles", "hot_swaps", "generation", "requests_during_recompile",
    "blocked_request_max_s", "promoted", "non_blocking_ok", "swapped",
    "swap_identical", "wall_s", "ok",
}
SOLVER_SCALING_ROW_KEYS = {
    "kills", "blocks", "classes_solved", "largest_phis",
    "mincut_solve_s", "lospre_solve_s", "solver_speedup",
    "mincut_compile_s", "lospre_compile_s", "max_width", "refusals",
    "mincut_dynamic_cost", "lospre_dynamic_cost", "mismatches",
}
WORKLOAD_KEYS = {
    "name", "family", "steps", "dynamic_cost", "reference_s",
    "compiled_s", "lowering_s", "speedup", "mismatches",
}
ITERATIVE_ROW_KEYS = {
    "name", "family", "oneshot_compile_s", "iterative_compile_s",
    "compile_overhead", "rounds_run", "fixpoint",
    "oneshot_dynamic_cost", "iterative_dynamic_cost", "cost_delta",
    "observables_match",
}


class TestCli:
    @pytest.fixture(scope="class")
    def bench(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("perf") / "BENCH.json"
        only = [arg for name in ENGINE_SECTIONS for arg in ("--only", name)]
        rc = main(["--quick", "--out", str(out), *only])
        return rc, json.loads(out.read_text())

    def test_exit_clean_and_schema(self, bench):
        rc, data = bench
        assert rc == 0
        assert set(data) == BENCH_KEYS
        assert data["schema"] == BENCH_SCHEMA_VERSION
        assert all(run["quick"] for run in data["section_runs"].values())
        assert data["ok"] is True

    def test_execution_section(self, bench):
        _, data = bench
        execution = data["execution"]
        assert execution["equivalent"] is True
        assert len(execution["workloads"]) == 2
        for row in execution["workloads"]:
            assert set(row) == WORKLOAD_KEYS
            assert row["mismatches"] == []
            assert row["steps"] > 0
        assert {r["family"] for r in execution["workloads"]} == {
            "CINT", "CFP",
        }

    def test_compile_section_names_pipeline_stages(self, bench):
        _, data = bench
        stages = data["compile"]["per_stage"]
        assert "mc-ssapre" in stages
        for stage in stages.values():
            assert stage["calls"] == data["compile"]["functions"]

    def test_per_stage_sums_do_not_exceed_total(self, bench):
        # Regression: _best_of used to pair the fastest wall time with
        # the *last* repeat's per-stage report, so stage sums could
        # exceed the reported total (3.188s of mc-ssapre inside a
        # 2.968s compile).  Stages must now come from the same repeat
        # that produced the total.
        _, data = bench
        compile_section = data["compile"]
        stage_sum = sum(
            stage["total_s"] for stage in compile_section["per_stage"].values()
        )
        # Small tolerance: per-stage and total are rounded independently.
        assert stage_sum <= compile_section["total_s"] + 0.01

    def test_solver_scaling_section(self, bench):
        _, data = bench
        scaling = data["solver_scaling"]
        assert scaling["ok"] is True
        assert scaling["equivalent"] is True
        assert scaling["accepted"] is True
        assert scaling["speedup_at_largest"] >= scaling["min_speedup"]
        sizes = [row["kills"] for row in scaling["sizes"]]
        assert sizes == sorted(sizes) and len(sizes) >= 2
        for row in scaling["sizes"]:
            assert set(row) == SOLVER_SCALING_ROW_KEYS
            assert row["mismatches"] == []
            assert row["refusals"] == 0
            # Exact-cost gate: lospre placement matches min-cut.
            assert row["lospre_dynamic_cost"] == row["mincut_dynamic_cost"]
            assert row["blocks"] > row["kills"]
            assert row["max_width"] >= 1

    def test_memory_section(self, bench):
        # Schema v7: array workloads under the alias model, plus the
        # pinned speculative-hoist / aliased-blocked pair.
        _, data = bench
        memory = data["memory"]
        assert set(memory) == MEMORY_KEYS
        assert memory["ok"] is True
        assert memory["equivalent"] is True
        assert memory["speedup"] >= memory["min_speedup"]
        assert len(memory["workloads"]) >= 1
        for row in memory["workloads"]:
            assert set(row) == MEMORY_WORKLOAD_KEYS
            assert row["mismatches"] == []
            assert row["loads"] > 0
        speculation = memory["speculation"]
        assert set(speculation) == {"hoist", "blocked"}
        hoist = speculation["hoist"]
        blocked = speculation["blocked"]
        assert set(hoist) == set(blocked) == SPECULATION_PIN_KEYS
        assert hoist["ok"] is True and blocked["ok"] is True
        # Strict win on the hoistable program: safe PRE is pinned to the
        # control, MC-SSAPRE speculates the load down to one evaluation.
        assert hoist["mc_cost"] < hoist["safe_cost"]
        assert hoist["mc_loads"] < hoist["safe_loads"]
        assert hoist["safe_loads"] == hoist["control_loads"]
        # The every-iteration aliasing store freezes everything.
        assert blocked["mc_cost"] == blocked["control_cost"]
        assert blocked["safe_cost"] == blocked["control_cost"]
        assert blocked["mc_loads"] == blocked["control_loads"]

    def test_iterative_section(self, bench):
        _, data = bench
        iterative = data["iterative"]
        assert iterative["ok"] is True
        assert iterative["never_higher"] is True
        assert iterative["strict_win"] is True
        assert iterative["equivalent"] is True
        families = set()
        for row in iterative["workloads"]:
            assert set(row) == ITERATIVE_ROW_KEYS
            assert row["observables_match"] is True
            assert row["cost_delta"] >= 0
            assert 1 <= row["rounds_run"] <= iterative["rounds"]
            families.add(row["family"])
        # The strict win must come from the composite-chain suite.
        assert "COMPOSITE" in families
        assert any(
            row["cost_delta"] > 0
            for row in iterative["workloads"]
            if row["family"] == "COMPOSITE"
        )

    def test_serving_section(self, bench):
        _, data = bench
        serving = data["serving"]
        assert set(serving) == SERVING_KEYS
        assert serving["ok"] is True
        assert serving["equivalent"] is True
        assert serving["mismatches"] == 0
        assert serving["speedup"] >= serving["min_speedup"]
        assert serving["hit_rate"] >= serving["expected_hit_rate"]
        coalescing = serving["coalescing"]
        assert coalescing["ok"] is True
        assert coalescing["compiles"] == 1
        assert coalescing["clients"] > 1
        # The solver=auto cold-request pin (schema v4).
        assert serving["auto_ok"] is True
        assert serving["cold_auto_s"] > 0
        # The adaptation block (schema v5): interpreter warmup must
        # promote, the stalled drift recompile must block no requests,
        # and the hot-swapped artifact must be bit-identical to a
        # from-scratch build under the recorded live profile.
        adaptation = serving["adaptation"]
        assert set(adaptation) == ADAPTATION_KEYS
        assert adaptation["ok"] is True
        assert adaptation["promoted"] is True
        assert adaptation["non_blocking_ok"] is True
        assert adaptation["swapped"] is True
        assert adaptation["swap_identical"] is True
        assert adaptation["promotions"] >= 1
        assert adaptation["drift_events"] >= 1
        assert adaptation["hot_swaps"] >= 1
        assert adaptation["generation"] >= 2
        assert adaptation["blocked_request_max_s"] < serving["cold_s"]
        # The cluster block (schema v6): four workers behind the
        # consistent-hash front end must beat 3x the single-process
        # closed-loop pin under an open-loop schedule, inside the p99
        # bound, with exactly one compile per unique key cluster-wide
        # and a cold-key race that compiles exactly once.
        cluster = serving["cluster"]
        assert set(cluster) == CLUSTER_KEYS
        assert cluster["ok"] is True
        assert cluster["workers"] >= 2
        assert cluster["rps_ratio"] >= cluster["min_rps_ratio"]
        assert cluster["p99_s"] <= cluster["p99_max_s"]
        assert cluster["mismatches"] == 0
        assert cluster["errors"] == 0
        assert cluster["timeouts"] == 0
        assert cluster["compiles"] == cluster["unique"]
        race = cluster["race"]
        assert set(race) == RACE_KEYS
        assert race["ok"] is True
        assert race["compiles"] == 1
        assert race["clients"] == cluster["workers"]
        assert race["rehydrates"] >= 1

    def test_maxflow_section(self, bench):
        _, data = bench
        assert data["maxflow"]["agreed"] is True
        for row in data["maxflow"]["networks"]:
            assert row["flows_agree"] is True
            assert row["max_flow"] > 0

    def test_profiling_section(self, bench):
        # Schema v10: chord counting.  The counted edges must sit inside
        # the spanning-tree bound, the derived result must be
        # bit-identical to full counting, counting events must drop by
        # the gated factor, and training on the derived profile must
        # cost zero dynamic-cost optimality.
        _, data = bench
        profiling = data["profiling"]
        assert set(profiling) == PROFILING_KEYS
        assert profiling["ok"] is True
        assert profiling["bounds_ok"] is True
        assert profiling["equivalent"] is True
        assert profiling["quality_ok"] is True
        assert profiling["event_ratio"] >= profiling["min_event_ratio"]
        assert len(profiling["workloads"]) >= 1
        for row in profiling["workloads"]:
            assert set(row) == PROFILING_ROW_KEYS
            assert row["mismatches"] == []
            assert row["chords"] <= row["bound"]
            assert row["bound"] >= row["edges"] - row["blocks"] + 1
            assert row["chord_events"] < row["full_events"]
        for row in profiling["quality"]:
            assert set(row) == PROFILING_QUALITY_KEYS
            assert row["delta_reconstructed"] == 0
            assert row["delta_sampled"] >= 0
            assert row["delta_stale"] >= 0

    def test_only_flag_restricts_sections(self, tmp_path):
        out = tmp_path / "BENCH.json"
        rc = main([
            "--quick", "--repeat", "1", "--only", "profiling",
            "--out", str(out),
        ])
        data = json.loads(out.read_text())
        assert rc == 0
        assert "profiling" in data
        assert "execution" not in data and "serving" not in data
        assert data["ok"] is True

    def test_only_merges_into_the_existing_record(self, tmp_path):
        out = tmp_path / "BENCH.json"
        assert main([
            "--quick", "--repeat", "1", "--only", "execution",
            "--out", str(out),
        ]) == 0
        before = json.loads(out.read_text())
        rc = main([
            "--quick", "--repeat", "1", "--only", "profiling",
            "--out", str(out),
        ])
        after = json.loads(out.read_text())
        assert rc == 0
        assert after["execution"] == before["execution"]
        assert after["profiling"]["ok"] is True
        assert after["section_runs"] == {
            "execution": {"quick": True, "repeat": 1},
            "profiling": {"quick": True, "repeat": 1},
        }
        assert after["ok"] is True

    def test_json_flag_prints_payload(self, tmp_path, capsys):
        out = tmp_path / "BENCH.json"
        rc = main([
            "--quick", "--repeat", "1", "--only", "maxflow", "--json",
            "--out", str(out),
        ])
        assert rc == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed == json.loads(out.read_text())

    def test_solver_flag_rejects_unknown_value(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--quick", "--solver", "bogus"])
        assert excinfo.value.code == 2
        assert "--solver" in capsys.readouterr().err


class TestCommittedRecord:
    def test_every_section_is_a_full_run(self):
        # The committed BENCH.json is the reference a change is compared
        # against, so it must hold every section, none of them quick.
        record = json.loads(
            (Path(__file__).parents[2] / "BENCH.json").read_text()
        )
        assert record["schema"] == BENCH_SCHEMA_VERSION
        assert set(record["section_runs"]) == set(SECTION_NAMES)
        for name in SECTION_NAMES:
            assert name in record
            assert record["section_runs"][name]["quick"] is False, name


class TestSolverKnob:
    """``--solver`` plumbing: every accepted value drives the compile
    section (satellite of the pluggable-solver issue)."""

    @pytest.mark.parametrize("solver", ["mincut", "lospre", "auto"])
    def test_bench_compile_accepts_each_solver(self, solver):
        payload = bench_compile(("bwaves",), repeat=1, solver=solver)
        assert payload["solver"] == solver
        assert payload["total_s"] > 0
        assert "mc-ssapre" in payload["per_stage"]


class TestHelpers:
    def test_runresult_mismatches_detects_each_field(self, straightline):
        ref = run_function(straightline, [2, 3])
        same = run_compiled(straightline, [2, 3])
        assert runresult_mismatches(ref, same) == []
        other = run_compiled(straightline, [5, 9])
        diff = runresult_mismatches(ref, other)
        assert "return_value" in diff

    def test_scaling_network_is_deterministic(self):
        a = scaling_network(4, 3)
        b = scaling_network(4, 3)
        assert [e.capacity for e in a.edges] == [
            e.capacity for e in b.edges
        ]
        assert a.node_count() == 4 * 3 + 2

    def test_solvers_agree_on_scaling_networks(self):
        report = bench_maxflow(((3, 3), (5, 4)), repeat=1)
        assert report["agreed"] is True

    def test_render_record_prints_scalars_nested_records_and_rows(self):
        text = render_record("demo", {
            "ok": True,
            "rows": [{"name": "a", "n": 1, "skip": [1]}, {"name": "bb", "n": 22}],
            "inner": {"x": 3, "empty": {}},
        })
        assert text.splitlines() == [
            "demo: ok=True",
            "demo.rows:",
            "  name   n",
            "     a   1",
            "    bb  22",
            "demo.inner: x=3",
        ]

    def test_solver_scaling_text_is_deterministic(self):
        a = solver_scaling_text(4)
        assert a == solver_scaling_text(4)
        # One kill diamond per iteration index: k `eq` guards.
        assert a.count("= eq i,") == 4
