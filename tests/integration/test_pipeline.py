"""Tests for the end-to-end pipeline module."""

import pytest

from repro.pipeline import (
    PAPER_VARIANTS,
    compile_variant,
    prepare,
    run_experiment,
)
from repro.profiles.interp import run_function


class TestPrepare:
    def test_prepare_does_not_mutate_source(self, while_loop):
        snapshot = str(while_loop)
        prepare(while_loop)
        assert str(while_loop) == snapshot

    def test_prepare_restructures_and_splits(self, while_loop):
        prepared = prepare(while_loop)
        assert any(l.startswith("head_test") for l in prepared.blocks)
        from repro.ir.verifier import has_critical_edges

        assert not has_critical_edges(prepared)

    def test_restructure_can_be_disabled(self, while_loop):
        prepared = prepare(while_loop, restructure=False)
        assert not any(l.startswith("head_test") for l in prepared.blocks)


class TestCompileVariant:
    def test_unknown_variant_rejected(self, while_loop):
        prepared = prepare(while_loop)
        with pytest.raises(ValueError):
            compile_variant(prepared, "magic")

    def test_profile_required_for_profiled_variants(self, while_loop):
        prepared = prepare(while_loop)
        for variant in ("mc-ssapre", "mc-pre", "ispre"):
            with pytest.raises(ValueError):
                compile_variant(prepared, variant)

    def test_none_variant_is_identity_semantics(self, while_loop):
        prepared = prepare(while_loop)
        compiled = compile_variant(prepared, "none")
        for n in (0, 3):
            assert (
                run_function(compiled.func, [1, 2, n]).observable()
                == run_function(prepared, [1, 2, n]).observable()
            )

    def test_ssa_variants_produce_non_ssa_output(self, while_loop):
        from repro.ssa.ssa_verifier import is_ssa

        prepared = prepare(while_loop)
        train = run_function(prepared, [1, 2, 5])
        for variant in ("ssapre", "ssapre-sp", "mc-ssapre"):
            compiled = compile_variant(prepared, variant, profile=train.profile)
            assert not is_ssa(compiled.func)

    def test_input_not_mutated_by_compilation(self, while_loop):
        prepared = prepare(while_loop)
        train = run_function(prepared, [1, 2, 5])
        snapshot = str(prepared)
        compile_variant(prepared, "mc-ssapre", profile=train.profile)
        assert str(prepared) == snapshot


class TestRunExperiment:
    def test_measurements_complete(self, while_loop):
        experiment = run_experiment(
            while_loop, [1, 2, 10], [1, 2, 12], variants=PAPER_VARIANTS
        )
        for variant in PAPER_VARIANTS + ("none",):
            assert variant in experiment.measurements

    def test_speedup_formula(self, while_loop):
        experiment = run_experiment(while_loop, [1, 2, 10], [1, 2, 12])
        a = experiment.cost("ssapre")
        c = experiment.cost("mc-ssapre")
        assert experiment.speedup("ssapre", "mc-ssapre") == pytest.approx(
            (a - c) / a
        )

    def test_restructuring_already_helps_safe_pre(self, while_loop):
        """With Figure-1 restructuring, the do-while body dominates the
        loop test, so even safe SSAPRE hoists the invariant — the paper's
        stated reason the compiler always rotates loops."""
        experiment = run_experiment(
            while_loop, [2, 3, 30], [2, 3, 30], variants=("ssapre",)
        )
        ab = ("add", ("var", "a"), ("var", "b"))
        from tests.core.test_optimality import normalize_counts

        counts = normalize_counts(experiment.measurements["ssapre"].expr_counts)
        assert counts[ab] == 1

    def test_variant_order_does_not_matter(self, while_loop):
        one = run_experiment(
            while_loop, [1, 2, 9], [1, 2, 9], variants=("ssapre", "mc-ssapre")
        )
        two = run_experiment(
            while_loop, [1, 2, 9], [1, 2, 9], variants=("mc-ssapre", "ssapre")
        )
        assert one.cost("mc-ssapre") == two.cost("mc-ssapre")
        assert one.cost("ssapre") == two.cost("ssapre")
