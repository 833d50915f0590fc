"""Tests for the optional SCCP / cleanup passes in the pipeline."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.generator import ProgramSpec, generate_program, random_args
from repro.pipeline import PipelineConfig, compile_variant, prepare
from repro.profiles.interp import run_function


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=40_000), st.booleans(), st.booleans())
def test_passes_preserve_semantics(seed, fold, cleanup):
    spec = ProgramSpec(name="pp", seed=seed, max_depth=2)
    prog = generate_program(spec)
    prepared = prepare(prog.func)
    args = random_args(spec, 1)
    train = run_function(prepared, args)
    compiled = compile_variant(
        prepared,
        PipelineConfig("mc-ssapre", fold_constants=fold, cleanup=cleanup),
        profile=train.profile,
        validate=True,
    )
    after = run_function(compiled.func, args)
    assert after.observable() == train.observable()


@settings(max_examples=8, deadline=None)
@given(st.integers(min_value=0, max_value=40_000))
def test_full_pipeline_never_slower(seed):
    """SCCP + MC-SSAPRE + cleanup vs plain MC-SSAPRE, matching profile."""
    spec = ProgramSpec(name="pf", seed=seed, max_depth=2)
    prog = generate_program(spec)
    prepared = prepare(prog.func)
    args = random_args(spec, 1)
    train = run_function(prepared, args)
    plain = compile_variant(prepared, "mc-ssapre", profile=train.profile)
    tuned = compile_variant(
        prepared,
        PipelineConfig("mc-ssapre", fold_constants=True, cleanup=True),
        profile=train.profile,
    )
    plain_cost = run_function(plain.func, args).dynamic_cost
    tuned_cost = run_function(tuned.func, args).dynamic_cost
    assert tuned_cost <= plain_cost


def test_cleanup_removes_copies(while_loop):
    from repro.ir.instructions import Assign

    prepared = prepare(while_loop)
    train = run_function(prepared, [2, 3, 10])

    def copy_count(func):
        return sum(
            1
            for block in func
            for stmt in block.body
            if isinstance(stmt, Assign) and stmt.is_copy
        )

    plain = compile_variant(prepared, "mc-ssapre", profile=train.profile)
    cleaned = compile_variant(
        prepared, PipelineConfig("mc-ssapre", cleanup=True), train.profile
    )
    assert copy_count(cleaned.func) <= copy_count(plain.func)
