"""Tests for critical-edge splitting and while->do-while restructuring."""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.generator import ProgramSpec, generate_program, random_args
from repro.ir.builder import FunctionBuilder
from repro.ir.cfg import CFG
from repro.ir.transforms import restructure_while_loops, split_critical_edges
from repro.ir.verifier import has_critical_edges, verify_function
from repro.profiles.interp import run_function


def build_critical() -> "FunctionBuilder":
    b = FunctionBuilder("f", params=["c", "x"])
    b.block("entry")
    b.branch("c", "mid", "join")  # entry->join is critical
    b.block("mid")
    b.assign("x", "add", "x", 1)
    b.jump("join")
    b.block("join")
    b.ret("x")
    return b


class TestSplitCriticalEdges:
    def test_removes_all_critical_edges(self):
        func = build_critical().build()
        inserted = split_critical_edges(func)
        assert len(inserted) == 1
        assert not has_critical_edges(func)
        verify_function(func)

    def test_preserves_semantics(self):
        func = build_critical().build()
        before = run_function(copy.deepcopy(func), [1, 5])
        split_critical_edges(func)
        after = run_function(func, [1, 5])
        assert before.observable() == after.observable()
        before0 = run_function(build_critical().build(), [0, 5])
        after0 = run_function(func, [0, 5])
        assert before0.observable() == after0.observable()

    def test_noop_when_no_critical_edges(self, diamond):
        assert split_critical_edges(diamond) == []

    def test_phi_args_rekeyed(self):
        func = build_critical().build()
        from repro.ssa.construct import construct_ssa

        split_critical_edges(func)
        construct_ssa(func)
        verify_function(func)
        join = func.blocks["join"]
        assert join.phis, "join should merge x"
        for phi in join.phis:
            assert set(phi.args) == set(CFG(func).predecessors("join"))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=5_000))
    def test_idempotent_on_generated_programs(self, seed):
        prog = generate_program(ProgramSpec(name="s", seed=seed, max_depth=2))
        func = prog.func
        split_critical_edges(func)
        assert not has_critical_edges(func)
        assert split_critical_edges(func) == []
        verify_function(func)


class TestRestructureWhileLoops:
    def test_loop_rotated(self, while_loop):
        clones = restructure_while_loops(while_loop)
        assert clones, "the while loop should be rotated"
        verify_function(while_loop)
        cfg = CFG(while_loop)
        # The original header is now reached only from inside the loop.
        preds = set(cfg.predecessors("head"))
        assert preds == {"body"}

    def test_zero_trip_loop_semantics(self, while_loop):
        before = run_function(copy.deepcopy(while_loop), [2, 3, 0])
        restructure_while_loops(while_loop)
        after = run_function(while_loop, [2, 3, 0])
        assert before.observable() == after.observable()

    def test_multi_trip_semantics(self, while_loop):
        before = run_function(copy.deepcopy(while_loop), [2, 3, 9])
        restructure_while_loops(while_loop)
        after = run_function(while_loop, [2, 3, 9])
        assert before.observable() == after.observable()

    def test_body_no_longer_guarded_by_header_on_entry(self, while_loop):
        """After rotation, entering with n>0 skips the in-loop test once."""
        restructure_while_loops(while_loop)
        run = run_function(while_loop, [2, 3, 4])
        # The clone executes once; the original header once per iteration.
        clone_label = next(l for l in while_loop.blocks if l.startswith("head_test"))
        assert run.profile.node(clone_label) == 1
        assert run.profile.node("head") == 4

    def test_rejects_ssa_input(self, while_loop):
        from repro.ssa.construct import construct_ssa

        construct_ssa(while_loop)
        with pytest.raises(ValueError):
            restructure_while_loops(while_loop)

    def test_entry_header_loop(self):
        """A loop whose header is the function entry block."""
        b = FunctionBuilder("f", params=["n"])
        b.block("head")
        b.assign("n", "sub", "n", 1)
        b.assign("c", "gt", "n", 0)
        b.branch("c", "head", "done")
        b.block("done")
        b.ret("n")
        func = b.build()
        before = run_function(copy.deepcopy(func), [5])
        restructure_while_loops(func)
        verify_function(func)
        after = run_function(func, [5])
        assert before.observable() == after.observable()

    def test_analyses_built_once_for_many_loops(self, monkeypatch):
        """50 sequential while loops: one dominator tree and one loop
        forest in total, not one per rotation."""
        import repro.ir.transforms as transforms

        built = {"DominatorTree": 0, "LoopForest": 0}

        def counting(cls):
            def construct(*args, **kwargs):
                built[cls.__name__] += 1
                return cls(*args, **kwargs)

            return construct

        for name in built:
            cls = getattr(transforms, name)
            monkeypatch.setattr(transforms, name, counting(cls))

        b = FunctionBuilder("seq", params=["n"])
        b.block("entry")
        b.copy("i", 0)
        b.jump("head0")
        for k in range(50):
            b.block(f"head{k}")
            b.assign("c", "lt", "i", "n")
            b.branch("c", f"body{k}", f"head{k + 1}" if k < 49 else "done")
            b.block(f"body{k}")
            b.assign("i", "add", "i", 1)
            b.jump(f"head{k}")
        b.block("done")
        b.ret("i")
        func = b.build()

        clones = restructure_while_loops(func)
        assert built == {"DominatorTree": 1, "LoopForest": 1}
        assert len(clones) == 50
        verify_function(func)
        cfg = CFG(func)
        for k in range(50):
            assert cfg.predecessors(f"head{k}") == [f"body{k}"]

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=5_000))
    def test_generated_program_semantics_preserved(self, seed):
        spec = ProgramSpec(name="r", seed=seed, max_depth=2)
        prog = generate_program(spec)
        args = random_args(spec, 3)
        before = run_function(copy.deepcopy(prog.func), args)
        clones = restructure_while_loops(prog.func)
        verify_function(prog.func)
        after = run_function(prog.func, args)
        assert before.observable() == after.observable()
