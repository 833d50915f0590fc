"""``python -m repro.check`` CLI: JSON schema, artifacts, replay, exit codes."""

import json
from pathlib import Path

from repro.check.cli import main
from repro.check.corpus import SCHEMA_VERSION
from repro.check.oracles import DEFAULT_MAX_STEPS

from tests.check.conftest import diverge_on

import pytest

#: The documented summary schema (docs/CHECKING.md).  Additions require a
#: SCHEMA_VERSION bump; removals/renames are breaking.  v2 added
#: "engine" and "jobs"; v3 added "interrupted" and the "cache" oracle;
#: v4 added "solver" and the always-on mc-ssapre-lospre twin; v5 added
#: the "probes" oracle and flow-conservation profile validation; v6
#: dropped "engine" (and gave failure artifacts "solver", "inputs" and
#: "max_steps").
SUMMARY_KEYS = {
    "schema", "seeds", "seed_base", "shapes", "oracles", "jobs", "solver",
    "passed", "artifacts", "cases", "skipped", "failures", "per_oracle",
    "by_kind", "wall_time_s", "interrupted",
}


class TestJsonSummary:
    @pytest.fixture(scope="class")
    def summary(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("check")
        # capsys is function-scoped, so read the summary file instead.
        rc = main(["--seeds", "2", "--json", "--out", str(out)])
        data = json.loads((out / "summary.json").read_text())
        return rc, out, data

    def test_exit_code_clean(self, summary):
        rc, _, data = summary
        assert rc == 0
        assert data["passed"] is True

    def test_stable_schema_keys(self, summary):
        _, _, data = summary
        assert set(data) == SUMMARY_KEYS
        assert data["schema"] == SCHEMA_VERSION

    def test_per_oracle_counts(self, summary):
        _, _, data = summary
        assert set(data["per_oracle"]) == {
            "compile", "equiv", "optimal", "lifetime", "safety", "cache",
            "probes",
        }
        for counts in data["per_oracle"].values():
            assert set(counts) == {"checks", "failures"}
            assert counts["checks"] > 0
            assert counts["failures"] == 0

    def test_wall_time_and_counts(self, summary):
        _, _, data = summary
        assert isinstance(data["wall_time_s"], float)
        assert data["wall_time_s"] > 0
        assert data["seeds"] == 2
        assert data["cases"] == 8  # 2 seeds x 4 shapes
        assert data["shapes"] == ["cint", "cfp", "composite", "mem"]
        assert data["oracles"] == [
            "equiv", "optimal", "lifetime", "safety", "cache", "probes",
        ]
        assert data["artifacts"] == []
        assert data["interrupted"] is False

    def test_stdout_matches_summary_file(self, tmp_path, capsys):
        out = tmp_path / "check"
        main(["--seeds", "1", "--shape", "cint", "--json", "--out", str(out)])
        printed = json.loads(capsys.readouterr().out)
        on_disk = json.loads((out / "summary.json").read_text())
        assert printed == on_disk


class TestOptions:
    def test_single_shape_single_oracle(self, tmp_path):
        out = tmp_path / "check"
        rc = main([
            "--seeds", "1", "--shape", "cfp", "--oracle", "safety",
            "--json", "--out", str(out),
        ])
        data = json.loads((out / "summary.json").read_text())
        assert rc == 0
        assert data["shapes"] == ["cfp"]
        assert data["oracles"] == ["safety"]
        assert set(data["per_oracle"]) == {"compile", "safety"}

    def test_seed_base_shifts_the_window(self, tmp_path):
        out = tmp_path / "check"
        main([
            "--seeds", "1", "--seed-base", "17", "--shape", "cint",
            "--oracle", "equiv", "--json", "--out", str(out),
        ])
        data = json.loads((out / "summary.json").read_text())
        assert data["seed_base"] == 17
        assert data["cases"] == 1

    def test_text_output_mentions_pass(self, tmp_path, capsys):
        rc = main([
            "--seeds", "1", "--shape", "cint", "--oracle", "equiv",
            "--out", str(tmp_path / "check"),
        ])
        assert rc == 0
        assert "PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("solver", ["mincut", "lospre", "auto"])
    def test_solver_flag_accepted_and_recorded(self, tmp_path, solver):
        out = tmp_path / "check"
        rc = main([
            "--seeds", "1", "--shape", "cint", "--oracle", "optimal",
            "--solver", solver, "--json", "--out", str(out),
        ])
        data = json.loads((out / "summary.json").read_text())
        assert rc == 0
        assert data["passed"] is True
        assert data["solver"] == solver

    def test_unknown_solver_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--seeds", "1", "--solver", "simplex"])
        assert excinfo.value.code == 2
        assert "--solver" in capsys.readouterr().err


def _fabricated_artifact(tmp_path, **fields) -> Path:
    """An artifact claiming a failure that main cannot reproduce."""
    artifact = tmp_path / "seed0_cint_equiv_divergence_lcm.json"
    artifact.write_text(json.dumps({
        "schema": SCHEMA_VERSION,
        "seed": 0,
        "shape": "cint",
        "solver": "mincut",
        "inputs": 3,
        "max_steps": DEFAULT_MAX_STEPS,
        "oracle": "equiv",
        "variant": "lcm",
        "kind": "divergence",
        "detail": "fabricated",
        **fields,
    }))
    return artifact


class TestReplay:
    def test_non_reproducing_artifact_exits_nonzero(self, tmp_path, capsys):
        # Replay must say so and exit 1.
        artifact = _fabricated_artifact(tmp_path)
        rc = main(["--replay", str(artifact)])
        assert rc == 1
        assert "DID NOT reproduce" in capsys.readouterr().out

    def test_replay_json_mode(self, tmp_path, capsys):
        artifact = _fabricated_artifact(tmp_path)
        rc = main(["--replay", str(artifact), "--json"])
        data = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert data["reproduced"] is False
        assert Path(data["artifact"]) == artifact

    def test_profile_failure_replays_without_oracles(self, tmp_path):
        # "profile" findings come from the build itself, as in the
        # reducer's predicate: replay must not ask for a "profile" oracle.
        from repro.check.corpus import replay_artifact

        artifact = _fabricated_artifact(
            tmp_path, oracle="profile", variant="control",
            kind="flow-violation",
        )
        reproduced, result = replay_artifact(artifact)
        assert reproduced is False
        assert result.reports == []

    def test_artifact_replays_the_run_settings(self, tmp_path, monkeypatch):
        # A variant wrong on input #4 only fails under --inputs 5: the
        # artifact must record the input count (and the solver and step
        # budget), and replay must run the case under them.
        import functools

        import repro.check.cli as cli
        import repro.check.corpus as corpus
        from repro.check.driver import case_inputs, run_driver, spec_for_shape

        late = diverge_on(case_inputs(spec_for_shape("cint", 0), 5)[4])
        monkeypatch.setattr(cli, "run_driver", functools.partial(
            run_driver, extra_variants={"late": late}
        ))
        out = tmp_path / "check"
        rc = main([
            "--seeds", "1", "--shape", "cint", "--oracle", "equiv",
            "--inputs", "5", "--solver", "lospre", "--max-steps", "900000",
            "--no-reduce", "--json", "--out", str(out),
        ])
        data = json.loads((out / "summary.json").read_text())
        assert rc == 1
        assert data["failures"] == 1
        (path,) = data["artifacts"]
        record = json.loads(Path(path).read_text())
        assert "input #4" in record["detail"]
        assert (record["solver"], record["inputs"], record["max_steps"]) == (
            "lospre", 5, 900000,
        )
        seen = []

        def run_case(*args, **kwargs):
            seen.append(kwargs)
            return corpus_run_case(*args, **kwargs)

        corpus_run_case = corpus.run_case
        monkeypatch.setattr(corpus, "run_case", run_case)
        reproduced, _ = corpus.replay_artifact(
            path, extra_variants={"late": late}
        )
        assert reproduced
        (kwargs,) = seen
        assert kwargs["solver"] == "lospre"
        assert kwargs["n_inputs"] == 5 and kwargs["max_steps"] == 900000


class TestReduction:
    def test_same_triple_failures_reduce_once(self, tmp_path, monkeypatch):
        import functools

        import repro.check.cli as cli
        from repro.check.driver import run_driver
        from repro.ir.instructions import Output
        from repro.ir.values import Const

        def noisy(func, profile):
            # Diverges on every input: one equiv failure per input.
            func.entry_block.body.append(Output(Const(424242)))
            func.mark_code_mutated()
            return func

        monkeypatch.setattr(cli, "run_driver", functools.partial(
            run_driver, extra_variants={"noisy": noisy}
        ))
        reduced = []

        def reduce_function(source, predicate):
            reduced.append(source)
            raise ValueError("kept unreduced")

        monkeypatch.setattr(cli, "reduce_function", reduce_function)
        out = tmp_path / "check"
        rc = main([
            "--seeds", "1", "--shape", "cint", "--oracle", "equiv",
            "--json", "--out", str(out),
        ])
        data = json.loads((out / "summary.json").read_text())
        assert rc == 1
        assert data["failures"] == 3  # one per input
        assert len(reduced) == 1
        assert len(data["artifacts"]) == len(set(data["artifacts"])) == 1
        record = json.loads(Path(data["artifacts"][0]).read_text())
        assert len(record["transcript"]) == 3
