"""The pluggable speculation-solver layer (repro.core.solvers).

The exactness contract: every solver produces the lifetime-optimal
minimum cut, so lospre and the min cut must agree on the *placement*
(compiled text), the per-class cut values, and the measured dynamic
cost — not merely on observables.
"""

import copy

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.bench.generator import ProgramSpec, generate_program, random_args
from repro.core.mcssapre.driver import run_mc_ssapre
from repro.core.solvers.base import (
    DEFAULT_SOLVER,
    SOLVER_NAMES,
    resolve_solver,
)
from repro.core.solvers.lospre import DEFAULT_MAX_WIDTH, LospreSolver
from repro.core.solvers.mincut import MinCutSolver
from repro.passes.compiler import PipelineConfig, compile as compile_func
from repro.pipeline import prepare
from repro.profiles.interp import run_function
from tests.conftest import as_ssa


def _fuzz_program(seed):
    spec = ProgramSpec(name="solver", seed=seed, max_depth=3)
    prog = generate_program(spec)
    return prog, random_args(spec, 1)


def _compile_with(prepared, profile, solver):
    compiled = compile_func(
        prepared, PipelineConfig("mc-ssapre", solver=solver), profile
    )
    return compiled


class TestResolveSolver:
    def test_names_resolve_to_solver_instances(self):
        assert isinstance(resolve_solver("mincut"), MinCutSolver)
        assert isinstance(resolve_solver("lospre"), LospreSolver)

    def test_instances_pass_through(self):
        solver = LospreSolver(max_width=3)
        assert resolve_solver(solver) is solver

    def test_auto_is_a_policy_not_a_solver(self):
        with pytest.raises(ValueError, match="policy"):
            resolve_solver("auto")

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown solver"):
            resolve_solver("simplex")

    def test_registry_constants(self):
        assert DEFAULT_SOLVER == "mincut"
        assert set(SOLVER_NAMES) == {"mincut", "lospre", "auto"}


class TestExactness:
    """lospre == min cut, bit for bit, on every accepted program."""

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=5_000))
    def test_lospre_matches_mincut_placement(self, seed):
        prog, args = _fuzz_program(seed)
        prepared = prepare(prog.func, restructure=False)
        train = run_function(copy.deepcopy(prepared), args)

        by_mincut = _compile_with(prepared, train.profile, "mincut")
        by_lospre = _compile_with(prepared, train.profile, "lospre")

        # Identical code, not merely equivalent code.
        assert str(by_lospre.func) == str(by_mincut.func)

        # Identical predicted cut values, class by class.
        mc = by_mincut.pre_result
        lp = by_lospre.pre_result
        assert [(s.expr, s.cut_value, s.insertions) for s in lp.efg_stats] \
            == [(s.expr, s.cut_value, s.insertions) for s in mc.efg_stats]

        # Identical measured dynamic cost.
        ref_mc = run_function(copy.deepcopy(by_mincut.func), args)
        ref_lp = run_function(copy.deepcopy(by_lospre.func), args)
        assert ref_lp.dynamic_cost == ref_mc.dynamic_cost
        assert ref_lp.observable() == ref_mc.observable()

    def test_solvers_agree_on_loop_speculation(self, while_loop):
        """The canonical speculative case: hoist out of the rarely-taken
        arm when the profile says the loop is hot."""
        ssa_mc = as_ssa(while_loop)
        ssa_lp = copy.deepcopy(ssa_mc)
        profile = run_function(copy.deepcopy(ssa_mc), [2, 3, 50]).profile
        mc = run_mc_ssapre(ssa_mc, profile, solver="mincut")
        lp = run_mc_ssapre(ssa_lp, profile, solver="lospre")
        assert str(ssa_lp) == str(ssa_mc)
        assert [s.cut_value for s in lp.efg_stats] == [
            s.cut_value for s in mc.efg_stats
        ]


class TestReporting:
    def test_solver_recorded_in_result_and_stats(self, while_loop):
        ssa = as_ssa(while_loop)
        profile = run_function(copy.deepcopy(ssa), [2, 3, 10]).profile
        result = run_mc_ssapre(ssa, profile, solver="lospre")
        assert result.solver_requested == "lospre"
        assert result.solver_used == "lospre"
        assert result.shape_width is not None
        assert result.lospre_refusals == 0
        assert result.efg_stats, "the loop produces a non-trivial class"
        for stat in result.efg_stats:
            assert stat.solver == "lospre"
            assert stat.width is not None
            assert 0 <= stat.width <= DEFAULT_MAX_WIDTH

    def test_mincut_stats_have_no_width(self, while_loop):
        ssa = as_ssa(while_loop)
        profile = run_function(copy.deepcopy(ssa), [2, 3, 10]).profile
        result = run_mc_ssapre(ssa, profile)
        assert result.solver_requested == "mincut"
        assert result.solver_used == "mincut"
        for stat in result.efg_stats:
            assert stat.solver == "mincut"
            assert stat.width is None


class TestRefusal:
    """Width overflow returns None; the driver falls back to the cut."""

    def test_zero_width_solver_refuses_and_falls_back(self):
        # The kill-chain family needs width 1: a zero-width bound must
        # refuse it (a plain loop's single-Φ class eliminates at width
        # 0 and would sail through).
        from repro.lang.parser import parse_function
        from repro.perf.bench import solver_scaling_text

        func = prepare(parse_function(solver_scaling_text(3)))
        ssa = as_ssa(func)
        reference = copy.deepcopy(ssa)
        profile = run_function(copy.deepcopy(ssa), [3, 5, 6]).profile
        result = run_mc_ssapre(ssa, profile, solver=LospreSolver(max_width=0))
        baseline = run_mc_ssapre(reference, profile, solver="mincut")
        assert result.lospre_refusals > 0
        # Fallback placements are still the lifetime-optimal cut.
        assert str(ssa) == str(reference)
        assert [s.cut_value for s in result.efg_stats] == [
            s.cut_value for s in baseline.efg_stats
        ]

    def test_default_width_never_refuses_structured_code(self, while_loop):
        ssa = as_ssa(while_loop)
        profile = run_function(copy.deepcopy(ssa), [2, 3, 10]).profile
        result = run_mc_ssapre(ssa, profile, solver="lospre")
        assert result.lospre_refusals == 0
