"""The fuzz driver: case construction, classification, determinism."""

from repro.check.driver import (
    SHAPES,
    SOLVER_TWIN,
    DriverStats,
    build_case,
    check_case,
    failure_predicate,
    run_case,
    run_driver,
    spec_for_shape,
)
from repro.check.oracles import ORACLE_NAMES, OracleFailure
from repro.ir.printer import format_function

from tests.check.conftest import crashing_variant, dangling_jump_variant

import pytest


class TestSpecs:
    def test_both_shapes_have_trapping_knobs_on(self):
        for shape in SHAPES:
            spec = spec_for_shape(shape, 0)
            assert spec.trapping_density > 0
            assert spec.trapping_hot_prob > 0

    def test_unknown_shape_rejected(self):
        with pytest.raises(ValueError, match="unknown shape"):
            spec_for_shape("spec2017", 0)

    def test_specs_deterministic_in_seed(self):
        assert spec_for_shape("cint", 7) == spec_for_shape("cint", 7)
        assert spec_for_shape("cint", 7) != spec_for_shape("cint", 8)


class TestBuildCase:
    def test_builds_all_variants_and_inputs(self):
        result = build_case(0, "cint")
        assert result.skipped is None
        case = result.case
        assert set(case.compiled) == {
            "none", "ssapre", "ssapre-sp", "mc-ssapre", "mc-pre",
            "ispre", "lcm", "ssapre-iter", "mc-ssapre-iter",
            "mc-ssapre-lospre",
        }
        assert len(case.inputs) == 3
        assert len(case.control_runs) == 3
        for runs in case.variant_runs.values():
            assert len(runs) == 3

    def test_iterative_twins_optional(self):
        # The solver twin is independent of the iterative knob: it rides
        # along whenever mc-ssapre itself is compiled.
        result = build_case(0, "cint", iterative=False)
        assert set(result.case.compiled) == {
            "none", "ssapre", "ssapre-sp", "mc-ssapre", "mc-pre",
            "ispre", "lcm", "mc-ssapre-lospre",
        }

    def test_solver_twin_matches_main_compile(self):
        case = build_case(0, "cint").case
        assert format_function(case.compiled[SOLVER_TWIN]) == (
            format_function(case.compiled["mc-ssapre"])
        )

    def test_forced_lospre_produces_identical_case(self):
        mincut = build_case(0, "cint", solver="mincut").case
        lospre = build_case(0, "cint", solver="lospre").case
        for name in mincut.compiled:
            assert format_function(lospre.compiled[name]) == (
                format_function(mincut.compiled[name])
            ), name

    def test_budget_exhaustion_skips_instead_of_failing(self):
        result = build_case(0, "cfp", max_steps=5)
        assert result.skipped is not None
        assert result.case is None
        assert result.passed  # a skip is not a finding

    def test_crash_classification(self):
        result = build_case(0, "cint", extra_variants={"boom": crashing_variant})
        kinds = {(f.variant, f.kind) for f in result.compile_failures}
        assert ("boom", "crash") in kinds

    def test_verifier_reject_classification(self):
        result = build_case(
            0, "cint", extra_variants={"dangling": dangling_jump_variant}
        )
        kinds = {(f.variant, f.kind) for f in result.compile_failures}
        assert ("dangling", "verifier-reject") in kinds


class TestDeterminism:
    def test_same_seed_same_case(self):
        a = run_case(3, "cint")
        b = run_case(3, "cint")
        assert format_function(a.case.source) == format_function(b.case.source)
        assert a.case.inputs == b.case.inputs
        assert [f.to_dict() for f in a.failures] == [
            f.to_dict() for f in b.failures
        ]
        for variant in a.case.compiled:
            assert format_function(a.case.compiled[variant]) == format_function(
                b.case.compiled[variant]
            )

    def test_shapes_actually_differ(self):
        cint = build_case(3, "cint").case
        cfp = build_case(3, "cfp").case
        assert format_function(cint.source) != format_function(cfp.source)


class TestRunDriver:
    def test_small_sweep_passes_clean(self):
        stats, failing = run_driver(3)
        assert failing == []
        assert stats.cases == 3 * len(SHAPES)
        assert stats.failures == 0
        assert set(stats.per_oracle) == {"compile", *ORACLE_NAMES}
        for checks, fails in stats.per_oracle.values():
            assert checks > 0
            assert fails == 0

    def test_explicit_seed_list_and_single_oracle(self):
        stats, failing = run_driver([5, 9], shapes=("cint",), oracles=("equiv",))
        assert stats.cases == 2
        assert set(stats.per_oracle) == {"compile", "equiv"}

    def test_unknown_oracle_rejected(self):
        result = build_case(0, "cint")
        with pytest.raises(ValueError, match="unknown oracle"):
            check_case(result, ("frobnicate",))

    def test_stats_to_dict_shape(self):
        stats, _ = run_driver(1, shapes=("cint",))
        d = stats.to_dict()
        assert set(d) == {
            "cases", "skipped", "failures", "per_oracle", "by_kind",
            "interrupted", "wall_time_s",
        }
        assert all(
            set(v) == {"checks", "failures"} for v in d["per_oracle"].values()
        )


class TestProfileValidation:
    """Flow-conservation checking of every fuzzed profile (schema v5)."""

    def test_control_profiles_conserve_flow(self):
        result = build_case(2, "cfp")
        assert result.compile_failures == []
        entry = result.case.prepared.entry
        for run in result.case.control_runs:
            assert run.profile.check_flow_conservation(entry) == []

    def test_flow_violation_classifies_under_profile_bucket(self):
        result = build_case(0, "cint")
        result.compile_failures.append(OracleFailure(
            "profile", "control", "flow-violation", "synthetic"
        ))
        stats = DriverStats()
        stats.record(result)
        assert stats.per_oracle["profile"] == [0, 1]
        assert stats.by_kind["flow-violation"] == 1

    @pytest.mark.parametrize(
        "skew, category, field",
        [
            (lambda run: setattr(run, "steps", run.steps + 1), "profile", "steps"),
            (lambda run: run.expr_counts.clear(), "profile", "expr_counts"),
            (lambda run: run.output.append(0), "compile", "observables"),
        ],
    )
    def test_engine_mismatch_is_classified(self, monkeypatch, skew, category, field):
        # A compiled engine whose results drift from the reference in one
        # field, with every profile still conserving flow: the control and
        # the main mc-ssapre variant are both re-run on the other engine.
        from repro.profiles.compiled import CompiledProgram

        run = CompiledProgram.run

        def skewed(self, *args, **kwargs):
            result = run(self, *args, **kwargs)
            skew(result)
            return result

        monkeypatch.setattr(CompiledProgram, "run", skewed)
        result = build_case(0, "cint")
        found = {
            (f.oracle, f.variant)
            for f in result.compile_failures
            if f.kind == "engine-mismatch" and f"disagree on {field}" in f.detail
        }
        assert found == {(category, "control"), (category, "mc-ssapre")}
        assert not any(
            f.kind == "flow-violation" for f in result.compile_failures
        )

    def test_healthy_engines_agree(self):
        result = build_case(1, "mem")
        assert not [
            f for f in result.compile_failures if f.kind == "engine-mismatch"
        ]

    def test_profile_failures_replay_without_oracles(self):
        # Like "compile" findings, "profile" findings are recorded by
        # build_case itself — the reducer predicate must not ask for a
        # named oracle that does not exist.
        failure = OracleFailure(
            "profile", "control", "flow-violation", "synthetic"
        )
        predicate = failure_predicate(0, "cint", failure)
        source = build_case(0, "cint").case.source
        # A healthy program does not reproduce the synthetic violation.
        assert predicate(source) is False
