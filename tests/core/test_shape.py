"""CFG shape classification and the ``auto`` solver-selection policy.

Pins the classifier's verdicts on a fixed corpus: structured control
flow (straight line, diamonds, loop nests) is accepted with small
constant width; dense flowgraphs (grids) and dense irreducible tangles
exceed the bound and are routed to the min cut.  The property test
closes the loop: ``auto`` may never change the code the pipeline emits.
"""

import copy

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.bench.generator import ProgramSpec, generate_program, random_args
from repro.core.mcssapre.driver import run_mc_ssapre
from repro.core.solvers.shape import (
    DEFAULT_CFG_WIDTH_BOUND,
    cfg_elimination_width,
    classify_cfg,
    select_solver,
)
from repro.ir.builder import FunctionBuilder
from repro.passes.compiler import PipelineConfig, compile as compile_func
from repro.pipeline import prepare
from repro.profiles.interp import run_function
from tests.conftest import (
    as_ssa,
    build_diamond,
    build_straightline,
    build_while_loop,
)


def build_grid(k: int):
    """A k x k grid CFG: every interior block branches right or down.

    Grids are the canonical unbounded-treewidth family — planar, fully
    reducible, yet width ~k under any elimination order.
    """
    b = FunctionBuilder("grid", params=["c"])
    b.block("entry")
    b.jump("g_0_0")
    for i in range(k):
        for j in range(k):
            b.block(f"g_{i}_{j}")
            down = f"g_{i + 1}_{j}" if i + 1 < k else None
            right = f"g_{i}_{j + 1}" if j + 1 < k else None
            if down and right:
                b.branch("c", down, right)
            elif down or right:
                b.jump(down or right)
            else:
                b.ret("c")
    return b.build()


def build_tangle(m: int, stride: int):
    """A dense irreducible flowgraph: block i branches to i+1 and
    i+stride, both mod m — the wraparound chords enter every cycle at
    multiple points, so no node dominates the loops it sits in."""
    b = FunctionBuilder("tangle", params=["c"])
    b.block("entry")
    b.jump("h0")
    for i in range(m):
        b.block(f"h{i}")
        if i == m - 1:
            b.ret("c")
        else:
            b.branch("c", f"h{(i + 1) % m}", f"h{(i + stride) % m}")
    return b.build()


def build_small_irreducible():
    """The textbook two-entry loop {a, b} — irreducible but tiny."""
    b = FunctionBuilder("irr", params=["c"])
    b.block("entry")
    b.branch("c", "a", "bb")
    b.block("a")
    b.jump("bb")
    b.block("bb")
    b.branch("c", "a", "exit")
    b.block("exit")
    b.ret("c")
    return b.build()


class TestEliminationWidth:
    def test_path_graph_has_width_one(self):
        adj = {0: {1}, 1: {0, 2}, 2: {1}}
        assert cfg_elimination_width(adj, 8) == (True, 1)

    def test_triangle_has_width_two(self):
        adj = {0: {1, 2}, 1: {0, 2}, 2: {0, 1}}
        assert cfg_elimination_width(adj, 8) == (True, 2)

    def test_bound_overflow_reports_witness_width(self):
        clique = {u: {v for v in range(6) if v != u} for u in range(6)}
        ok, width = cfg_elimination_width(clique, 2)
        assert not ok and width == 5  # the witness scope that overflowed

    def test_deterministic(self):
        func = prepare(build_while_loop())
        assert classify_cfg(func) == classify_cfg(func)


class TestPinnedCorpus:
    """The classifier's verdict on each corpus shape, width included."""

    @pytest.mark.parametrize("build, accepted, width", [
        (build_straightline, True, 0),
        (build_diamond, True, 2),
        (build_while_loop, True, 1),       # raw while shape, no restructure
        (build_small_irreducible, True, 2),
        (lambda: build_grid(3), True, 3),
    ])
    def test_structured_shapes_accepted(self, build, accepted, width):
        report = classify_cfg(prepare(build(), restructure=False))
        assert report.accepted is accepted
        assert report.width == width
        assert report.solver_name() == "lospre"
        assert str(report.width) in report.reason

    @pytest.mark.parametrize("func", [
        build_grid(10),          # dense, reducible
        build_tangle(100, 10),   # dense, irreducible
    ])
    def test_dense_shapes_rejected(self, func):
        report = classify_cfg(func)
        assert report.accepted is False
        assert report.width > DEFAULT_CFG_WIDTH_BOUND
        assert report.solver_name() == "mincut"

    def test_while_loop_prepared_width(self):
        # prepare() restructures to do-while and splits critical edges;
        # the classifier must see the shape the pipeline compiles.
        report = classify_cfg(prepare(build_while_loop()))
        assert report.accepted and report.width == 2
        assert report.blocks == 9


class TestSelectSolver:
    def test_forced_mincut_skips_classification(self):
        assert select_solver(build_diamond(), "mincut") == ("mincut", None)

    def test_forced_lospre_still_reports_shape(self):
        name, report = select_solver(build_grid(10), "lospre")
        assert name == "lospre"  # forced: the per-class DP is the net
        assert report is not None and report.accepted is False

    def test_auto_picks_by_shape(self):
        name, report = select_solver(prepare(build_diamond()), "auto")
        assert name == "lospre" and report.accepted
        name, report = select_solver(build_grid(10), "auto")
        assert name == "mincut" and not report.accepted

    def test_unknown_request_raises(self):
        with pytest.raises(ValueError, match="unknown solver"):
            select_solver(build_diamond(), "dinic")

    def test_auto_rejection_recorded_by_driver(self):
        grid = build_grid(10)
        profile = run_function(copy.deepcopy(grid), [1]).profile
        ssa = as_ssa(grid)
        result = run_mc_ssapre(ssa, profile, solver="auto")
        assert result.solver_requested == "auto"
        assert result.solver_used == "mincut"
        assert result.shape_width is not None
        assert result.shape_width > DEFAULT_CFG_WIDTH_BOUND


class TestAutoNeverChangesCode:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=5_000))
    def test_auto_equals_forced_mincut(self, seed):
        spec = ProgramSpec(name="shape", seed=seed, max_depth=3)
        prog = generate_program(spec)
        args = random_args(spec, 1)
        prepared = prepare(prog.func, restructure=False)
        train = run_function(copy.deepcopy(prepared), args)

        forced = compile_func(
            prepared, PipelineConfig("mc-ssapre", solver="mincut"),
            train.profile,
        )
        auto = compile_func(
            prepared, PipelineConfig("mc-ssapre", solver="auto"),
            train.profile,
        )
        assert str(auto.func) == str(forced.func)
        ref_forced = run_function(copy.deepcopy(forced.func), args)
        ref_auto = run_function(copy.deepcopy(auto.func), args)
        assert ref_auto.observable() == ref_forced.observable()
        assert ref_auto.dynamic_cost == ref_forced.dynamic_cost
