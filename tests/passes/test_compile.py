"""The single compile() entry point across all variants."""

import pytest

from repro.passes import VARIANTS, CompiledFunction, PipelineConfig, compile
from repro.passes.stages import (
    ConstructSSAPass,
    DCEPass,
    DestructSSAPass,
    GVNPass,
    SSAPREPass,
)
from repro.pipeline import prepare
from repro.profiles.interp import run_function
from tests.conftest import small_generated


def _prepared(seed=7):
    prog, train_args, ref_args = small_generated(seed)
    prepared = prepare(prog.func)
    train = run_function(prepared, train_args)
    return prepared, train, ref_args


@pytest.mark.parametrize("variant", VARIANTS)
def test_every_variant_compiles_and_preserves_semantics(variant):
    prepared, train, ref_args = _prepared()
    expected = run_function(prepared, ref_args).observable()
    compiled = compile(prepared, variant, train.profile, validate=True)
    assert isinstance(compiled, CompiledFunction)
    assert compiled.variant == variant
    assert compiled.report is not None
    assert run_function(compiled.func, ref_args).observable() == expected


def test_compile_never_mutates_its_input():
    prepared, train, _ = _prepared()
    before = prepared.statement_count()
    compile(prepared, "mc-ssapre", train.profile)
    assert prepared.statement_count() == before


def test_unknown_variant_and_missing_profile_raise():
    prepared, _, _ = _prepared()
    with pytest.raises(ValueError, match="unknown variant"):
        compile(prepared, "sspre")
    for variant in ("mc-ssapre", "mc-pre", "ispre"):
        with pytest.raises(ValueError, match="requires an execution profile"):
            compile(prepared, variant)


def test_pre_stage_reuses_construct_ssa_analyses():
    """The cache hit the refactor exists for: SSA construction computes
    the dominator tree; SSAPRE's FRG construction reuses it instead of
    recomputing."""
    prepared, train, _ = _prepared()
    report = compile(prepared, "ssapre", train.profile).report
    construct = report.execution("construct-ssa")
    pre = report.execution("ssapre")
    assert construct.cache_misses >= 3  # cfg + domtree + domfrontier
    assert pre.cache_hits >= 3
    assert pre.cache_misses == 0
    hits, misses = report.cache_counters["domtree"]
    assert misses == 1  # computed exactly once for the whole pipeline
    assert hits >= 1


def test_iterative_rounds_never_recompute_cfg_analyses():
    """The CFG-shape-preservation contract, observed through the cache:
    however many rounds the worklist engine runs, every CFG-derived
    analysis is computed at most once per function per compile."""
    prepared, train, _ = _prepared()
    config = PipelineConfig("mc-ssapre", rounds=4)
    report = compile(prepared, config, train.profile).report
    assert report.execution("mc-ssapre-iter").payload.rounds_run >= 1
    for analysis in ("cfg", "domtree", "domfrontier"):
        _, misses = report.cache_counters[analysis]
        assert misses <= 1, analysis


def test_iterative_rounds_appear_in_report_dict():
    prepared, train, _ = _prepared()
    config = PipelineConfig("mc-ssapre", rounds=4)
    report = compile(prepared, config, train.profile).report
    entry = next(
        p for p in report.to_dict()["passes"]
        if p["pass"] == "mc-ssapre-iter"
    )
    payload = entry["payload"]
    assert payload["rounds"][0]["round"] == 1
    assert {"classes", "changed", "insertions", "reloads"} <= set(
        payload["rounds"][0]
    )
    assert isinstance(payload["fixpoint"], bool)


def test_pure_pre_noop_skips_generation_bump():
    """A PRE stage that changes no class must not invalidate the
    code-generation-keyed analyses (the mutated() hook)."""
    from repro.ir.builder import FunctionBuilder
    from repro.passes import PassManager
    from repro.passes.stages import MCSSAPREPass
    from tests.conftest import as_ssa

    b = FunctionBuilder("clean", params=["a", "b"])
    b.block("entry")
    b.assign("x", "add", "a", "b")
    b.ret("x")
    func = b.build()
    profile = run_function(func, [1, 2]).profile
    func = as_ssa(func)
    before = func.code_generation
    report = PassManager().run(
        func, [MCSSAPREPass(rounds=4)], profile=profile, variant="unit"
    )
    assert report.execution("mc-ssapre-iter").payload.classes_changed == 0
    assert func.code_generation == before


def test_clone_time_is_recorded():
    prepared, train, _ = _prepared()
    report = compile(prepared, "ssapre", train.profile).report
    assert report.clone_time > 0
    assert report.total_time >= report.clone_time


def test_pipeline_spec_override_runs_custom_stages():
    prepared, train, ref_args = _prepared()
    expected = run_function(prepared, ref_args).observable()
    compiled = compile(
        prepared,
        "ssapre",
        train.profile,
        pipeline_spec=[
            ConstructSSAPass(), GVNPass(), SSAPREPass(), DCEPass(),
            DestructSSAPass(),
        ],
    )
    names = [ex.name for ex in compiled.report.executions]
    assert names == ["construct-ssa", "gvn", "ssapre", "dce", "destruct-ssa"]
    assert run_function(compiled.func, ref_args).observable() == expected
    assert compiled.pre_result is not None


def _stage_names(config):
    return [p.name for p in config.stages()]


def test_config_stages_shapes():
    assert _stage_names(PipelineConfig("none")) == []
    assert _stage_names(PipelineConfig("lcm")) == ["lcm"]
    assert _stage_names(PipelineConfig("ssapre")) == [
        "construct-ssa", "ssapre", "destruct-ssa",
    ]
    assert _stage_names(
        PipelineConfig("mc-ssapre", fold_constants=True, cleanup=True)
    ) == [
        "construct-ssa", "sccp", "mc-ssapre", "copyprop", "dce",
        "destruct-ssa",
    ]
    assert _stage_names(PipelineConfig("ssapre-sp", rounds=4)) == [
        "construct-ssa", "ssapre-sp-iter", "destruct-ssa",
    ]
    with pytest.raises(ValueError):
        PipelineConfig("nope")


def test_pre_result_is_the_pre_stage_payload():
    prepared, train, _ = _prepared()
    for variant in VARIANTS:
        compiled = compile(prepared, variant, train.profile)
        pre = [
            ex.payload for ex in compiled.report.executions
            if ex.name.startswith(variant)
        ]
        assert compiled.pre_result is (pre[-1] if pre else None), variant


def test_verify_each_end_to_end():
    prepared, train, _ = _prepared()
    compiled = compile(
        prepared, "mc-ssapre", train.profile, verify_each=True
    )
    assert compiled.report.verified
